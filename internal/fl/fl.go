// Package fl orchestrates federated learning of a recommendation model
// through the FEDORA controller, reproducing the paper's accuracy study
// (Sec 6.4 / Table 1, which the authors run on the RF2 FL simulator).
//
// Each round (FedAvg):
//
//  1. A random subset of users is selected.
//  2. Each user requests the embedding rows its local data needs
//     (padded to the fixed count in hide-# mode); the controller runs
//     FEDORA steps ①–③.
//  3. Users download their rows (step ④), train locally — the small MLP
//     with plain SGD, the embedding rows by accumulating gradients —
//     and upload: embedding gradients through the buffer ORAM (step ⑥),
//     MLP deltas through ordinary FedAvg (the dense part is small and
//     uses conventional FL, Sec 2.2).
//  4. The controller applies aggregated updates (step ⑦); the server
//     averages MLP deltas.
//
// Entries lost to the ε-FDP mechanism follow the paper's policy:
// training samples touching a lost candidate row are dropped for the
// round; lost history rows are skipped from pooling.
//
// Key invariants: a run is deterministic in Config.Seed at ANY
// Config.Workers value — per-client randomness derives only from the
// round seed and the client's index, workers compute independent
// per-client outcomes, and the merge step replays uploads in client
// order (rows sorted within a client) so floating-point aggregation
// happens in one fixed order regardless of goroutine scheduling.
package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/recmodel"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// LostPolicy selects how clients handle embedding rows the ε-FDP
// mechanism sacrificed (paper Sec 4.2: "using a random/default value or
// simply dropping the corresponding training sample").
type LostPolicy int

const (
	// LostDrop drops training samples whose candidate row is missing —
	// the paper prototype's choice.
	LostDrop LostPolicy = iota
	// LostDefault substitutes the row's initialization value, keeping the
	// sample; the substituted row's gradient is discarded (it cannot be
	// uploaded — the row is not in the buffer ORAM).
	LostDefault
)

// Config parameterizes a training run.
type Config struct {
	// Dataset supplies users and samples.
	Dataset *dataset.Dataset
	// Dim is the embedding dimension.
	Dim int
	// Hidden is the MLP width.
	Hidden int
	// UsePrivate enables private behavioural-history features; false is
	// the paper's "pub" baseline.
	UsePrivate bool
	// Dropout for the MLP hidden layer (paper: 0.5 for MovieLens).
	Dropout float32
	// Pooling selects the history reduction (mean or attention).
	Pooling recmodel.Pooling
	// DenseIn is the dense-feature width of the samples (0 = none).
	DenseIn int
	// Epsilon / Shape / HideCount configure ε-FDP (see fedora.Config).
	Epsilon   float64
	Shape     fdp.Shape
	HideCount bool
	// ClientsPerRound users participate each round.
	ClientsPerRound int
	// MaxFeaturesPerClient caps (and, in hide-# mode, pads) requests.
	MaxFeaturesPerClient int
	// LocalLR is the client-side SGD rate; LocalEpochs the local passes.
	LocalLR     float32
	LocalEpochs int
	// ServerLR scales the averaged MLP delta (1 = plain FedAvg).
	ServerLR float32
	// Seed drives client selection and initialization.
	Seed int64
	// Backend selects the main-ORAM design (default BackendFedora).
	Backend fedora.Backend
	// Lost selects the lost-entry strategy (default LostDrop).
	Lost LostPolicy
	// Selection picks which k entries the controller reads (Sec 4.2).
	Selection fedora.SelectionPolicy
	// DPClip/DPSigma enable DP-FedAvg on the dense model (McMahan et al.,
	// reference [78]): per-client MLP deltas are L2-clipped to DPClip and
	// Gaussian noise N(0, (DPSigma·DPClip)²·I) is added to their sum.
	// Zero disables. This is the model-protecting DP the paper notes is
	// orthogonal to (and composable with) ε-FDP.
	DPClip  float64
	DPSigma float64
	// UseSecAgg masks the MLP deltas with pairwise secure aggregation
	// (Bonawitz et al., reference [8]) so the server only learns their
	// sum; the paper states FEDORA is compatible with SecAgg (Sec 2.2).
	UseSecAgg bool
	// DropoutProb is the probability a selected client downloads its rows
	// but never uploads (network loss, device churn). FEDORA tolerates
	// this natively: n_t adjusts and untouched entries keep their values
	// (Sec 4.3). Under a masked UploadCodec a drop happens AFTER mask
	// commitment, so it additionally exercises the unmasking round.
	DropoutProb float64
	// UploadCodec routes embedding-gradient uploads through the wire
	// upload plane (internal/wire): "plaintext", "masked",
	// "masked-sparse" or "subspace". Empty (or "legacy") keeps the
	// original float gradient path. All wire codecs quantize through the
	// secagg fixed point, so plaintext/masked/masked-sparse runs are
	// bit-identical to EACH OTHER (and across local/remote and any
	// worker/shard count) but not to the legacy float path.
	UploadCodec string
	// SubspaceDim is d′ for the subspace codec: how many of the Dim
	// coordinates each row updates per round (0 = Dim/4, minimum 1).
	SubspaceDim int
	// Workers bounds the worker pool that fans per-client downloads and
	// local SGD out across goroutines (0 = runtime.GOMAXPROCS(0); 1 =
	// fully sequential). Clients are independent until aggregation
	// (Sec 4.2–4.4), so the round is parallel up to the merge step; the
	// merge itself replays uploads in client order, which makes the model
	// state bit-identical for a given Seed at ANY worker count.
	Workers int
	// Shards partitions the controller's embedding table into this many
	// per-shard ORAM pipelines executed concurrently (0 or 1 =
	// monolithic; see fedora.Config.Shards). At equal chunking the model
	// and ε guarantees are unchanged — sharding only moves wall-clock.
	Shards int
	// Prefetch enables the lookahead pipeline end to end: the controller
	// overlaps ORAM reads and deferred eviction with compute
	// (fedora.Config.Prefetch), and the trainer stages round R+1's cohort
	// right after round R completes so the controller starts loading its
	// working set while the caller is still between rounds. Results are
	// bit-identical with Prefetch on or off — only wall-clock placement
	// changes.
	Prefetch bool
	// ShardWorkers bounds the controller-side shard pool (0 = derive).
	ShardWorkers int
	// Encrypt seals the controller's off-chip structures with the TEE
	// engine (fedora.Config.Encrypt). Under fault injection this is what
	// turns a silent bit-flip into a detected tee.ErrAuthFailed.
	Encrypt bool
	// EvictPeriod overrides the main RAW ORAM's eviction period A
	// (fedora.Config.EvictPeriod; 0 = derive). Chaos tests set 1 so every
	// access writes a path back and SSD faults actually fire.
	EvictPeriod int
	// WrapDevice, when non-nil, wraps every storage device the controller
	// creates (fedora.Config.WrapDevice) — the fault-injection seam. Use
	// (*fault.Plan).Wrap to drive it from a fault plan.
	WrapDevice func(name string, d device.Device) device.Device
	// Storage selects the backend realizing the controller's main device
	// (fedora.Config.Storage): the zero value is the discrete-event
	// simulator; storage.Spec{Kind: storage.KindFile, ...} does real
	// page-aligned I/O against backing files. Purely operational — the
	// trained model is bit-identical across backends at equal seed.
	Storage storage.Spec
}

func (c *Config) setDefaults() {
	if c.Dim == 0 {
		c.Dim = 16
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.ClientsPerRound == 0 {
		c.ClientsPerRound = 20
	}
	if c.MaxFeaturesPerClient == 0 {
		c.MaxFeaturesPerClient = 100
	}
	if c.LocalLR == 0 {
		c.LocalLR = 0.1
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.ServerLR == 0 {
		c.ServerLR = 1
	}
}

// Trainer runs FL rounds against a FEDORA controller — in-process by
// default, or wherever the Orchestrator puts it (NewWithOrchestrator).
type Trainer struct {
	cfg     Config
	orch    Orchestrator
	ctrl    *fedora.Controller // nil when the controller is remote
	global  *recmodel.Model
	src     *persist.Source // checkpointable state behind rng
	rng     *rand.Rand
	initRow func(row uint64) []float32

	// aggregate statistics across rounds for Table 1 reporting
	totK, totUnion, totSampled, totDummy, totLost int
	// epsSpent accumulates the per-round ε (sequential composition: a
	// user's features recur across rounds).
	epsSpent float64
	rounds   int

	// preRound, when set (tests only), runs before each round of Run —
	// used to inject mid-loop faults for the abort-path regression test.
	preRound func(round int)

	// next is the lookahead plan stageNext drew for the coming round
	// (Config.Prefetch). It has consumed the trainer RNG exactly as a
	// cold RunRound would, so consuming it keeps the run bit-identical.
	next *stagedPlan

	// Buffers reused across rounds (see reserve). A pool worker touches
	// only its scratch and its client's upload; the rest is the merge's.
	scratch      []*clientScratch
	uploads      []clientUpload
	outcomes     []clientOutcome
	globalFlat   []float32
	grads        []fedora.RowGradient
	mlpUps       []mlpUpload
	mlpV, mlpSum []float32
}

// stagedPlan is a drawn-ahead round: the selected cohort, its request
// lists and the round seed, posted to the orchestrator's staging leg.
type stagedPlan struct {
	users []*dataset.User
	reqs  [][]uint64
	seed  int64
}

// initRowFunc is the deterministic per-row embedding initializer both
// the trainer and BuildController derive from (Seed, Dim) — the server
// hosting a remote trainer's controller must use the same one for the
// two deployments to start from identical tables.
func initRowFunc(seed int64, dim int) func(row uint64) []float32 {
	const scale = float32(0.05)
	return func(row uint64) []float32 {
		// Deterministic per-row init so every run starts identically.
		r := rand.New(rand.NewSource(seed ^ int64(row*2654435761)))
		v := make([]float32, dim)
		for i := range v {
			v[i] = (r.Float32()*2 - 1) * scale
		}
		return v
	}
}

// ControllerConfig maps an fl.Config to the GLOBAL fedora.Config
// fl.New would build its controller from. Exported alongside
// BuildController for deployments that need the config itself rather
// than a built controller: a cluster coordinator routes against the
// global config while only member processes instantiate (slices of)
// it, and a member process slices this config with fedora.SliceConfig
// before building.
func ControllerConfig(cfg Config) (fedora.Config, error) {
	cfg.setDefaults()
	if cfg.Dataset == nil {
		return fedora.Config{}, errors.New("fl: Dataset required")
	}
	return fedora.Config{
		Backend:              cfg.Backend,
		NumRows:              cfg.Dataset.NumItems,
		Dim:                  cfg.Dim,
		Epsilon:              cfg.Epsilon,
		Shape:                cfg.Shape,
		HideCount:            cfg.HideCount,
		MaxClientsPerRound:   cfg.ClientsPerRound,
		MaxFeaturesPerClient: cfg.MaxFeaturesPerClient,
		LearningRate:         1, // FedAvg applies the mean delta directly
		Seed:                 cfg.Seed,
		Selection:            cfg.Selection,
		InitRow:              initRowFunc(cfg.Seed, cfg.Dim),
		Shards:               cfg.Shards,
		ShardWorkers:         cfg.ShardWorkers,
		Encrypt:              cfg.Encrypt,
		EvictPeriod:          cfg.EvictPeriod,
		WrapDevice:           cfg.WrapDevice,
		Storage:              cfg.Storage,
		Prefetch:             cfg.Prefetch,
	}, nil
}

// BuildController constructs the FEDORA controller fl.New would pair
// with cfg. Exported so a serving process (cmd/fedora-server) can host
// the controller while a remote trainer drives it over the wire: a
// remote run is bit-identical to a local one exactly when both sides
// built their halves from the same Config.
func BuildController(cfg Config) (*fedora.Controller, error) {
	fc, err := ControllerConfig(cfg)
	if err != nil {
		return nil, err
	}
	return fedora.New(fc)
}

// New builds a trainer and its in-process controller.
func New(cfg Config) (*Trainer, error) {
	ctrl, err := BuildController(cfg)
	if err != nil {
		return nil, err
	}
	t, err := buildTrainer(cfg, &localOrchestrator{ctrl: ctrl})
	if err != nil {
		return nil, err
	}
	t.ctrl = ctrl
	return t, nil
}

// NewWithOrchestrator builds a trainer whose controller lives behind
// orch — e.g. a remote fedora-server reached through internal/client.
// The orchestrator's controller must have been built with
// BuildController(cfg) (same Config) for runs to match the in-process
// trainer bit for bit. Durable checkpointing (NewRunner) requires an
// in-process controller and is unavailable on such a trainer.
func NewWithOrchestrator(cfg Config, orch Orchestrator) (*Trainer, error) {
	if orch == nil {
		return nil, errors.New("fl: orchestrator required")
	}
	return buildTrainer(cfg, orch)
}

func buildTrainer(cfg Config, orch Orchestrator) (*Trainer, error) {
	cfg.setDefaults()
	if cfg.Dataset == nil {
		return nil, errors.New("fl: Dataset required")
	}
	if _, err := wire.ParseCodec(cfg.UploadCodec); err != nil {
		return nil, err
	}
	src := persist.NewSource(cfg.Seed + 1)
	return &Trainer{
		cfg:  cfg,
		orch: orch,
		global: recmodel.New(recmodel.Config{
			Dim: cfg.Dim, Hidden: cfg.Hidden, UsePrivate: cfg.UsePrivate,
			LR: cfg.LocalLR, Seed: cfg.Seed, Dropout: cfg.Dropout, Pooling: cfg.Pooling,
			DenseIn: cfg.DenseIn,
		}),
		src:     src,
		rng:     rand.New(src),
		initRow: initRowFunc(cfg.Seed, cfg.Dim),
	}, nil
}

// Controller exposes the underlying FEDORA controller (for stats and
// durable checkpointing). It is nil when the controller is remote.
func (t *Trainer) Controller() *fedora.Controller { return t.ctrl }

// Close releases the controller's devices — under the file backend, the
// backing files. A no-op for remote controllers (the serving process
// owns their lifetime) and for simulated devices; idempotent.
func (t *Trainer) Close() error {
	if t.ctrl == nil {
		return nil
	}
	return t.ctrl.Close()
}

// PhaseTimings is the host wall-clock breakdown of one FL round. Select,
// Train and Aggregate are measured by the trainer; Union and ORAMRead
// come from the controller (fedora.RoundStats' *WallTime fields). Train
// covers the parallel section: per-client downloads plus local SGD
// across the worker pool. Aggregate covers the deterministic merge —
// gradient submission in client order, the buffer-ORAM → main-ORAM
// write-back, and the dense FedAvg apply.
type PhaseTimings struct {
	Select    time.Duration
	Union     time.Duration
	ORAMRead  time.Duration
	Train     time.Duration
	Aggregate time.Duration
	Total     time.Duration
	// Prefetch and Evict report the lookahead pipeline's background
	// phases (zero with Config.Prefetch off): the fetcher's elapsed read
	// time and the deferred write-back drain, both overlapped with Train
	// — NOT part of Total's critical path. ORAMRead then means blocking
	// read time only (see fedora.RoundStats).
	Prefetch time.Duration
	Evict    time.Duration
}

// Add returns the field-wise sum (used to accumulate across rounds).
func (p PhaseTimings) Add(q PhaseTimings) PhaseTimings {
	return PhaseTimings{
		Select:    p.Select + q.Select,
		Union:     p.Union + q.Union,
		ORAMRead:  p.ORAMRead + q.ORAMRead,
		Train:     p.Train + q.Train,
		Aggregate: p.Aggregate + q.Aggregate,
		Total:     p.Total + q.Total,
		Prefetch:  p.Prefetch + q.Prefetch,
		Evict:     p.Evict + q.Evict,
	}
}

// RoundReport summarizes one round.
type RoundReport struct {
	fedora.RoundStats
	// Participants is the number of selected users.
	Participants int
	// TrainedSamples / DroppedSamples count local examples used/dropped.
	TrainedSamples int
	DroppedSamples int
	// DroppedClients counts participants that downloaded but never
	// uploaded this round.
	DroppedClients int
	// UnavailableRows counts row requests that landed on a quarantined
	// shard (degraded-mode serving). Clients treat them like lost rows —
	// the update could not have been applied anyway — but they are
	// tallied separately so degraded rounds are visible in reports.
	UnavailableRows int
	// MeanLoss is the average local training loss.
	MeanLoss float64
	// Workers is the worker-pool size the round trained with.
	Workers int
	// Timings is the wall-clock phase breakdown of the round.
	Timings PhaseTimings
	// RoundSeed is the seed that drove all per-client randomness this
	// round; ClientDigest fingerprints (seed, selected users). Both are
	// logged to the round WAL so crash recovery can verify that replayed
	// rounds re-derive the exact same cohort (see the durable Runner).
	RoundSeed    int64
	ClientDigest uint64
}

// Workers resolves the effective worker-pool size.
func (t *Trainer) Workers() int {
	if t.cfg.Workers > 0 {
		return t.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// clientOutcome is the result of one client's download + local-SGD pass,
// produced by a pool worker and folded into the round by the merge step.
type clientOutcome struct {
	err            error
	droppedClient  bool
	trained        int
	droppedSamples int
	unavailable    int
	lossSum        float64
	lossN          int
	// rows/deltas are the embedding uploads in ascending row order (a
	// deterministic order so the merge is reproducible).
	rows     []uint64
	deltas   [][]float32
	mlpDelta []float32
	// payload/sats are the client's encoded wire-plane upload (nil when
	// no upload codec is selected, or the client dropped out).
	payload []byte
	sats    int
}

// RunRound executes one FL round: selection and request building stay on
// the caller's goroutine (they consume the trainer RNG), the per-client
// download + local-SGD + upload-encoding work fans out over the worker
// pool, and a merge step delivers uploads in client order so aggregation
// keeps the exact sequential semantics regardless of worker count.
func (t *Trainer) RunRound() (RoundReport, error) {
	cfg := t.cfg
	workers := t.Workers()
	selStart := time.Now()
	// Consume the lookahead plan when one was staged (stageNext drew it
	// from the identical RNG position a cold draw here would use).
	var users []*dataset.User
	var reqs [][]uint64
	var roundSeed int64
	if t.next != nil {
		users, reqs, roundSeed = t.next.users, t.next.reqs, t.next.seed
		t.next = nil
	} else {
		users, reqs, roundSeed = t.drawRound()
	}
	report := RoundReport{Participants: len(users), Workers: workers}
	report.RoundSeed = roundSeed
	report.ClientDigest = clientDigest(roundSeed, users)
	report.Timings.Select = time.Since(selStart)

	round, err := t.orch.BeginRound(reqs)
	if err != nil {
		return report, err
	}

	// Upload plane: when a wire codec is selected, embedding gradients
	// travel through internal/wire instead of the legacy float path. The
	// plan is fixed now — the roster (everyone who reaches download) has
	// committed to this round's masks; clients lost after this point are
	// dropouts handled by the unmasking round.
	codec, _ := wire.ParseCodec(cfg.UploadCodec) // validated at build time
	var plane *wirePlane
	if codec != wire.CodecLegacy {
		plane, err = t.newWirePlane(round, codec, len(users), reqs)
		if err != nil {
			return report, err
		}
	}

	// Per-client local training over the bounded worker pool. Workers
	// only read shared state (global model, dataset, the upload plan) and
	// call the concurrency-safe Round entry points; all mutation happens
	// in the merge below.
	trainStart := time.Now()
	t.reserve(workers, len(users))
	outcomes := slices.Grow(t.outcomes[:0], len(users))[:len(users)]
	t.outcomes = outcomes
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		sc := t.scratch[w]
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i] = t.trainClient(round, plane, sc, &t.uploads[i], users[i], reqs[i], roundSeed, i)
				if deadHook != nil {
					deadHook(sc)
				}
			}
		}()
	}
	for i := range users {
		idx <- i
	}
	close(idx)
	wg.Wait()
	report.Timings.Train = time.Since(trainStart)

	// Merge in client order: float aggregation is order-sensitive, so a
	// fixed replay order keeps results identical at any worker count (and
	// identical to the sequential implementation this replaced).
	aggStart := time.Now()
	mlpUploads := t.mlpUps[:0]
	var dropouts []int
	var lossSum float64
	var lossN int
	for i := range outcomes {
		out := &outcomes[i]
		if out.err != nil {
			return report, fmt.Errorf("client %d: %w", i, out.err)
		}
		if out.droppedClient {
			report.DroppedClients++
			dropouts = append(dropouts, i)
			continue
		}
		report.TrainedSamples += out.trained
		report.DroppedSamples += out.droppedSamples
		report.UnavailableRows += out.unavailable
		lossSum += out.lossSum
		lossN += out.lossN
		// Upload plane: every surviving roster member uploads — including
		// trained==0 clients, whose empty payloads keep their masks in the
		// cancellation — in client order (the order is irrelevant to the
		// integer word sums, but keeps the transcript deterministic). The
		// payload was encoded on the worker that trained the client.
		if plane != nil {
			if err := plane.upload(i, out.payload, out.sats); err != nil {
				return report, err
			}
		}
		if out.trained == 0 {
			continue // user contributed nothing (all samples dropped)
		}
		// Legacy float path — one batched upload per client: rows are
		// distinct and already in ascending order, and batches apply in
		// client order, so the aggregation keeps its fixed, worker-count-
		// independent sequence — while a remote round pays O(rows/batch)
		// requests, not O(rows).
		if plane == nil && len(out.rows) > 0 {
			grads := t.grads[:0]
			for j, row := range out.rows {
				grads = append(grads, fedora.RowGradient{Row: row, Grad: out.deltas[j], Samples: out.trained})
			}
			t.grads = grads
			if _, err := round.SubmitGradients(grads); err != nil {
				return report, err
			}
			if deadHook != nil {
				deadHook(t.uploads[i].flat)
			}
		}
		mlpUploads = append(mlpUploads, mlpUpload{delta: out.mlpDelta, n: out.trained})
	}
	// The outcomes are reused: clear them now so neither Finish (where a
	// coordinator checkpoints) nor the next round keeps this round's wire
	// payloads alive.
	clear(outcomes)

	// Unmasking round + aggregate apply, before Finish closes the round.
	var planeSummary WireUnmaskSummary
	if plane != nil {
		planeSummary, err = plane.finish(dropouts)
		if err != nil {
			return report, err
		}
	}

	st, err := round.Finish()
	if err != nil {
		return report, err
	}
	report.RoundStats = st
	if plane != nil {
		// Trainer-side accounting overrides whatever the serving process
		// reported so local and remote round reports match exactly.
		report.WireBytes = planeSummary.Bytes
		report.Saturations = planeSummary.Saturations
	}
	report.Timings.Union = st.UnionWallTime
	report.Timings.ORAMRead = st.ReadWallTime
	report.Timings.Prefetch = st.PrefetchWallTime
	report.Timings.Evict = st.EvictWallTime
	if lossN > 0 {
		report.MeanLoss = lossSum / float64(lossN)
	}

	// FedAvg the MLP deltas, optionally through DP clipping/noise and
	// secure aggregation.
	t.mlpUps = mlpUploads
	if len(mlpUploads) > 0 {
		msats, err := t.applyMLPUpdates(mlpUploads)
		if err != nil {
			return report, err
		}
		report.Saturations += msats
	}
	report.Timings.Aggregate = time.Since(aggStart)
	report.Timings.Total = time.Since(selStart)

	t.totK += st.K
	t.totUnion += st.KUnion
	t.totSampled += st.KSampled
	t.totDummy += st.Dummy
	t.totLost += st.Lost
	t.epsSpent += st.RoundEpsilon
	t.rounds++
	return report, nil
}

// trainClient runs one client's round — download, local SGD, deltas —
// and, when an upload codec is selected (plane non-nil), encodes the
// client's wire payload: Plan.Encode is a pure function of the read-only
// plan and this client's own outcome, so it runs here on the pool
// instead of serially in the merge. Dropped and failed clients never
// encode; a survivor that trained nothing encodes its empty payload.
func (t *Trainer) trainClient(round RoundHandle, plane *wirePlane, sc *clientScratch, up *clientUpload, u *dataset.User, req []uint64, roundSeed int64, clientIdx int) clientOutcome {
	out := t.localTrain(round, sc, up, u, req, roundSeed, clientIdx)
	if plane != nil && out.err == nil && !out.droppedClient {
		out.payload, out.sats, out.err = plane.plan.Encode(clientIdx, out.rows, out.deltas, out.trained)
		if deadHook != nil {
			deadHook(up.flat)
		}
	}
	return out
}

// TrainClient runs one client's download, local SGD and deltas against
// round on the calling goroutine, as RunRound's pool does for client 0,
// and reports how many samples trained: the client step, measurable.
func (t *Trainer) TrainClient(round RoundHandle, u *dataset.User, req []uint64, roundSeed int64) (int, error) {
	t.reserve(1, 1)
	out := t.localTrain(round, t.scratch[0], &t.uploads[0], u, req, roundSeed, 0)
	return out.trained, out.err
}

// localTrain is the client's download, local SGD and delta computation.
// It is called from pool workers and must not touch trainer state other
// than reads of immutable/global data, its own scratch and upload; the
// only side effects go through the concurrency-safe round handle.
func (t *Trainer) localTrain(round RoundHandle, sc *clientScratch, up *clientUpload, u *dataset.User, req []uint64, roundSeed int64, clientIdx int) clientOutcome {
	cfg := t.cfg
	var out clientOutcome

	// Download the working set in ONE batched request (a remote round
	// pays O(rows/batch) wire round trips instead of O(rows)), keeping
	// pristine copies so the upload can be the local-SGD delta
	// Δθ_c = θ_downloaded − θ_trained.
	sc.realRows = sc.realRows[:0]
	for _, row := range req {
		if row != fedora.DummyRequest {
			sc.realRows = append(sc.realRows, row)
		}
	}
	results, err := round.ServeEntries(sc.realRows)
	if err != nil {
		out.err = err
		return out
	}
	ws := &sc.ws
	ws.reset()
	for _, res := range results {
		switch {
		case res.Unavailable:
			// The row's shard is quarantined (degraded mode): treat it
			// like a lost row — its upload could not be applied anyway —
			// but count it separately for the round report.
			out.unavailable++
			if cfg.Lost == LostDefault {
				ws.put(res.Row, t.initRow(res.Row), false)
			}
		case res.OK:
			ws.put(res.Row, res.Entry, true)
		case cfg.Lost == LostDefault:
			// Substitute the initialization value so samples touching
			// this row still train; its local updates are discarded at
			// upload (the row is not resident in the buffer ORAM).
			ws.put(res.Row, t.initRow(res.Row), false)
		}
	}
	// Per-client RNG: deterministic in (round seed, client index) so the
	// schedule across workers cannot influence results. It draws the
	// client-dropout coin, then seeds the model's dropout masks, so a
	// user selected in two rounds drops different hidden units.
	if cfg.DropoutProb > 0 || cfg.Dropout > 0 {
		sc.rng.Seed(roundSeed ^ (int64(clientIdx)+1)*0x5DEECE66D)
	}
	// Client dropout: the rows were fetched (and their ORAM cost paid)
	// but this client vanishes before uploading anything.
	if cfg.DropoutProb > 0 && sc.rng.Float64() < cfg.DropoutProb {
		out.droppedClient = true
		return out
	}
	// Local model: the worker's model, set to the global MLP.
	m := sc.model
	if cfg.Dropout > 0 {
		m.Reseed(sc.rng.Int63())
	}
	if err := m.MLP.SetParams(t.globalFlat); err != nil {
		out.err = err
		return out
	}
	for epoch := 0; epoch < cfg.LocalEpochs; epoch++ {
		for _, s := range u.Train {
			loss, ok := m.TrainStep(s, ws, ws)
			if !ok {
				if epoch == 0 {
					out.droppedSamples++
				}
				continue
			}
			// Apply the step to the local embedding copies (true local
			// SGD on the downloaded rows).
			ws.step(cfg.LocalLR)
			if epoch == 0 {
				out.trained++
			}
			out.lossSum += float64(loss)
			out.lossN++
		}
	}
	if out.trained == 0 {
		return out
	}
	// Embedding deltas for resident rows, in ascending row order; FedAvg
	// weights them by n_c = trained. (LostDefault substitutes never
	// upload.) Then the MLP delta (dense FedAvg outside FEDORA).
	ws.deltas(up)
	up.mlpDelta = m.MLP.AppendParams(up.mlpDelta[:0])
	for j, lp := range up.mlpDelta {
		up.mlpDelta[j] = t.globalFlat[j] - lp
	}
	out.rows, out.deltas, out.mlpDelta = up.rows, up.deltas, up.mlpDelta
	return out
}

// mlpUpload is one client's dense-model contribution.
type mlpUpload struct {
	delta []float32
	n     int
}

// applyMLPUpdates folds the clients' dense-model deltas into the global
// MLP: per-client weighting by n_c, optional DP-FedAvg clip+noise, and
// optional SecAgg masking (the server then only ever sees the sum).
// Returns the number of fixed-point saturations the masking clipped —
// non-zero means the secagg Scale is misconfigured for these deltas.
func (t *Trainer) applyMLPUpdates(uploads []mlpUpload) (int, error) {
	cfg := t.cfg
	var nTot float32
	for _, up := range uploads {
		nTot += float32(up.n)
	}
	length := len(uploads[0].delta)

	// Weight each client's delta by n_c/n_t, DP-clip it, and sum —
	// through SecAgg when enabled, so no individual v is visible.
	var sess *secagg.Session
	var masked map[int][]uint32
	if cfg.UseSecAgg && len(uploads) >= 2 {
		var err error
		if sess, err = secagg.NewSession(mlpSessionKey(cfg.Seed, t.orch.Round()), len(uploads), length); err != nil {
			return 0, err
		}
		masked = map[int][]uint32{}
	}
	t.mlpV = slices.Grow(t.mlpV[:0], length)[:length]
	t.mlpSum = slices.Grow(t.mlpSum[:0], length)[:length]
	v, sum := t.mlpV, t.mlpSum
	clear(sum)
	sats := 0
	for i, up := range uploads {
		w := float32(up.n) / nTot
		for j := range v {
			v[j] = w * up.delta[j]
		}
		if cfg.DPClip > 0 {
			clipL2(v, cfg.DPClip)
		}
		if sess == nil {
			for j := range sum {
				sum[j] += v[j]
			}
			continue
		}
		mv, s, err := sess.MaskCounting(i, v)
		if err != nil {
			return 0, err
		}
		sats += s
		masked[i] = mv
	}
	if sess != nil {
		var err error
		if sum, err = sess.Aggregate(masked, nil); err != nil {
			return 0, err
		}
	}

	// DP-FedAvg noise on the aggregate.
	if cfg.DPClip > 0 && cfg.DPSigma > 0 {
		sd := cfg.DPSigma * cfg.DPClip
		for j := range sum {
			sum[j] += float32(t.rng.NormFloat64() * sd)
		}
	}

	gp := t.globalFlat // still this round's global MLP: only this updates it
	for j := range gp {
		gp[j] -= cfg.ServerLR * sum[j]
	}
	return sats, t.global.MLP.SetParams(gp)
}

// mlpSessionKey derives the dense-model SecAgg session key for a round:
// SHA-256 over its own label, the full seed and the round, like
// wire.DeriveSessionKey — so pair masks never recur across rounds or
// seeds, and never coincide with the embedding plane's masks (both
// planes draw from the one secagg keystream).
func mlpSessionKey(seed int64, round uint64) [32]byte {
	const label = "fedora-mlp-sess-v1"
	var buf [len(label) + 16]byte
	copy(buf[:], label)
	binary.LittleEndian.PutUint64(buf[len(label):], uint64(seed))
	binary.LittleEndian.PutUint64(buf[len(label)+8:], round)
	return sha256.Sum256(buf[:])
}

// clipL2 scales v to L2 norm at most c.
func clipL2(v []float32, c float64) {
	var norm2 float64
	for _, x := range v {
		norm2 += float64(x) * float64(x)
	}
	if norm2 <= c*c || norm2 == 0 {
		return
	}
	scale := float32(c / math.Sqrt(norm2))
	for i := range v {
		v[i] *= scale
	}
}

// drawRound consumes t.rng to draw the next round's cohort, request
// lists and round seed — the complete deterministic state a round needs
// before it touches the controller. Extracted so stageNext can draw
// round R+1 early (while R's results are being digested) from the exact
// RNG position a cold RunRound draw would use.
func (t *Trainer) drawRound() (users []*dataset.User, reqs [][]uint64, roundSeed int64) {
	cfg := t.cfg
	users = t.selectUsers()
	// Build requests (consumes t.rng → must stay sequential, in order).
	reqs = make([][]uint64, len(users))
	for i, u := range users {
		if cfg.HideCount {
			reqs[i] = u.PaddedRows(cfg.MaxFeaturesPerClient, fedora.DummyRequest, t.rng)
		} else {
			reqs[i] = u.Rows(cfg.MaxFeaturesPerClient)
		}
	}
	// The round seed drives all per-client randomness: each client
	// derives its own RNG from (round seed, client index), so outcomes do
	// not depend on which worker runs which client, or in what order.
	roundSeed = t.rng.Int63()
	return users, reqs, roundSeed
}

// stageNext draws round R+1's plan ahead of time and posts it to the
// orchestrator's two-phase leg (when it has one), letting a prefetch-
// enabled controller start its ORAM reads while the caller is still
// between rounds. Call sites sit AFTER the current round is fully
// applied — the t.rng stream position is then identical to what the
// next RunRound's cold draw would see, so staged and unstaged runs are
// bit-identical. No-op unless Config.Prefetch is on.
func (t *Trainer) stageNext() {
	if !t.cfg.Prefetch || t.next != nil {
		return
	}
	users, reqs, seed := t.drawRound()
	t.next = &stagedPlan{users: users, reqs: reqs, seed: seed}
	if st, ok := t.orch.(RoundStager); ok {
		// Best-effort: a stage error just means the next BeginRound runs
		// cold (the plan itself is already drawn and will be consumed).
		_ = st.StageRound(reqs)
	}
}

// StageNext is the exported two-phase leg for callers driving RunRound
// directly rather than through Run (the durable Runner, the benchmark
// harness): call it after a round's result has been fully applied to
// stage the next one. No-op with Config.Prefetch off or when a plan is
// already staged, so sync and prefetch drivers can share a loop.
func (t *Trainer) StageNext() { t.stageNext() }

// selectUsers picks ClientsPerRound distinct users.
func (t *Trainer) selectUsers() []*dataset.User {
	n := t.cfg.ClientsPerRound
	users := t.cfg.Dataset.Users
	if n > len(users) {
		n = len(users)
	}
	perm := t.rng.Perm(len(users))[:n]
	out := make([]*dataset.User, n)
	for i, idx := range perm {
		out[i] = &users[idx]
	}
	return out
}

// EvaluateAUC scores the global model on every user's held-out samples,
// reading current embedding rows directly (evaluation backdoor).
func (t *Trainer) EvaluateAUC() (float64, error) {
	cache := recmodel.MapSource{}
	src := recmodel.FuncSource(func(id uint64) ([]float32, bool) {
		if v, ok := cache[id]; ok {
			return v, true
		}
		v, err := t.orch.PeekRow(id)
		if err != nil {
			return nil, false
		}
		cache[id] = v
		return v, true
	})
	var scores, labels []float32
	for _, u := range t.cfg.Dataset.Users {
		for _, s := range u.Test {
			p, ok := t.global.Predict(s, src)
			if !ok {
				continue
			}
			scores = append(scores, p)
			labels = append(labels, s.Label)
		}
	}
	if len(scores) == 0 {
		return 0, errors.New("fl: no test samples evaluated")
	}
	return recmodel.AUC(scores, labels), nil
}

// Result summarizes a full training run with Table 1's metrics.
type Result struct {
	Rounds int
	AUC    float64
	// ReducedAccesses is 1 − Σk / ΣK: the fraction of main-ORAM accesses
	// saved relative to the perfect-privacy (ε=0, k=K) configuration.
	ReducedAccesses float64
	// DummyFrac / LostFrac are Σdummy and Σlost over Σk_union — the
	// paper's Dummy/Lost columns (relative to the ε=∞ optimum). Zero on a
	// remote trainer: the API does not export the counts ε-FDP noises.
	DummyFrac float64
	LostFrac  float64
	// CumulativeEpsilon is the total ε-FDP budget spent across all rounds
	// (basic sequential composition; +Inf when the mechanism ran at ε=∞).
	CumulativeEpsilon float64
	// AdversaryBound is the success-probability bound implied by the
	// PER-ROUND ε (Sec 3.1's interpretation).
	AdversaryBound float64
	// Elapsed is the wall-clock training time (simulator-side).
	Elapsed time.Duration
	// Workers is the worker-pool size the run trained with.
	Workers int
	// Phases accumulates the per-round wall-clock phase breakdown.
	Phases PhaseTimings
	// WireBytes totals the upload-plane payload bytes across all rounds
	// (zero under the legacy float path).
	WireBytes uint64
	// Saturations totals the fixed-point clips across all rounds.
	Saturations int
}

// Run trains for the given number of rounds and evaluates. When a round
// fails mid-loop it aborts cleanly: the returned error names the failing
// round, and the partial Result still reports the rounds that DID
// complete (with their accumulated phase timings and elapsed time) so
// callers can see how far training got.
func (t *Trainer) Run(rounds int) (Result, error) {
	start := time.Now()
	res := Result{Workers: t.Workers()}
	for r := 0; r < rounds; r++ {
		if t.preRound != nil {
			t.preRound(r)
		}
		rep, err := t.RunRound()
		if err != nil {
			res.Rounds = r
			res.Elapsed = time.Since(start)
			return res, fmt.Errorf("round %d failed after %d completed: %w", r, r, err)
		}
		res.Phases = res.Phases.Add(rep.Timings)
		res.WireBytes += rep.WireBytes
		res.Saturations += rep.Saturations
		if r+1 < rounds {
			t.stageNext()
		}
	}
	res.Rounds = rounds
	res.Elapsed = time.Since(start)
	return t.summarize(res)
}

// Summary evaluates the current model and fills Table 1's metrics from
// the statistics accumulated so far — the same tail Run produces, usable
// after a checkpoint-resumed run where earlier rounds ran in a previous
// process.
func (t *Trainer) Summary() (Result, error) {
	return t.summarize(Result{Rounds: t.rounds, Workers: t.Workers()})
}

func (t *Trainer) summarize(res Result) (Result, error) {
	auc, err := t.EvaluateAUC()
	if err != nil {
		return res, err
	}
	res.AUC = auc
	res.CumulativeEpsilon = t.epsSpent
	res.AdversaryBound = fdp.AdversarySuccessBound(t.orch.EffectiveEpsilon())
	if t.totK > 0 {
		res.ReducedAccesses = 1 - float64(t.totSampled)/float64(t.totK)
	}
	if t.totUnion > 0 {
		res.DummyFrac = float64(t.totDummy) / float64(t.totUnion)
		res.LostFrac = float64(t.totLost) / float64(t.totUnion)
	}
	return res, nil
}
