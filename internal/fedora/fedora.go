// Package fedora implements the FEDORA controller — the paper's primary
// contribution (Sec 4): an FL server-side system that lets clients
// download/train/upload only the embedding rows they need while hiding
// the access pattern with ORAM and bounding the leakage of the access
// *count* with ε-FDP.
//
// One FL round follows Fig 4:
//
//	① union the K client requests obliviously (chunked when K is large)
//	② sample k per chunk from the ε-FDP mechanism (Eq. 3)
//	③ move k entries from the main ORAM (SSD) to the buffer ORAM (DRAM)
//	④ serve client downloads from the buffer ORAM
//	⑤ clients train locally (outside the controller)
//	⑥ aggregate uploaded gradients inside the buffer ORAM
//	⑦ move k entries back, applying the aggregated update
//
// Three backends share this structure:
//
//   - BackendFedora: RAW ORAM on SSD with FEDORA's optimizations + ε-FDP.
//     ε = 0 forces the Delta shape (k = K always — perfect FDP, Sec 6.2's
//     "FEDORA (ε=0)"); ε = ∞ degenerates to k = k_union (Strawman 2).
//   - BackendPathORAMPlus: the paper's baseline — an SSD-friendly Path
//     ORAM accessed once per user request (k = K policy, perfect FDP),
//     with full path read+write on every access.
//   - BackendDRAM: the Fig 9 comparison point — FEDORA's structure with
//     the main ORAM held in (expensive) DRAM instead of an SSD.
//
// Key invariants: at most one round is in flight per controller
// (BeginRound returns ErrRoundInProgress otherwise); the adversary
// observes exactly k main-ORAM accesses in each direction per chunk —
// dummy fetches and dummy write-backs pad both sides; and the ORAM
// pipeline is single-writer — a controller-level mutex serializes all
// round entry points, so many client goroutines may serve downloads and
// stage uploads concurrently (as the parallel FL trainer does) without
// the ORAMs ever seeing concurrent mutation.
package fedora

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/bufferoram"
	"repro/internal/device"
	"repro/internal/fdp"
	"repro/internal/obliv"
	"repro/internal/pathoram"
	"repro/internal/persist"
	"repro/internal/raworam"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tee"
)

// Backend selects the main-ORAM organization.
type Backend int

const (
	// BackendFedora is the full FEDORA design (RAW ORAM on SSD + ε-FDP).
	BackendFedora Backend = iota
	// BackendPathORAMPlus is the paper's SSD Path ORAM baseline.
	BackendPathORAMPlus
	// BackendDRAM holds the main ORAM in DRAM (cost/power comparison).
	BackendDRAM
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendFedora:
		return "fedora"
	case BackendPathORAMPlus:
		return "pathoram+"
	case BackendDRAM:
		return "dram-based"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// DefaultChunkSize is the paper's empirically chosen union chunk (16K
// entries, Sec 4.2).
const DefaultChunkSize = 16384

// Config parameterizes a controller.
type Config struct {
	// Backend selects the main-ORAM design.
	Backend Backend
	// NumRows is the embedding-table height N.
	NumRows uint64
	// Dim is the embedding dimension; rows are 4·Dim bytes (the paper's
	// 64–256 byte entries are Dim 16–64).
	Dim int
	// Epsilon is the per-round ε-FDP budget. 0 forces Delta shape (k=K);
	// use fdp.EpsilonInfinity for Strawman 2.
	Epsilon float64
	// Shape is the Y_i weighting (nil = Uniform; ignored when Epsilon==0).
	Shape fdp.Shape
	// HideCount, when true, divides ε by MaxFeaturesPerClient (group
	// privacy) so the number of feature values is hidden too (Sec 3.1's
	// "hide # of priv vals" mode; callers must pad requests to the max).
	HideCount bool
	// ChunkSize bounds the oblivious union's quadratic scan (0 = 16384).
	ChunkSize int
	// MaxClientsPerRound / MaxFeaturesPerClient size the buffer ORAM
	// (its capacity must make overflow impossible, Sec 4.3).
	MaxClientsPerRound   int
	MaxFeaturesPerClient int
	// Aggregator is the operation mode (nil = FedAvg).
	Aggregator bufferoram.Aggregator
	// LearningRate is η.
	LearningRate float32
	// Seed makes the controller deterministic.
	Seed int64
	// Phantom runs all ORAMs in accounting-only mode for large sweeps.
	Phantom bool
	// Encrypt seals off-chip structures with the TEE engine.
	Encrypt bool
	// HasScratchpad models the 4 KB on-chip scratch space (Fig 10).
	HasScratchpad bool
	// InitRow supplies initial embedding values (nil = zeros).
	InitRow func(row uint64) []float32
	// BucketBytes overrides the SSD bucket size (0 = one 4 KB page); used
	// by the Sec 6.6 bucket-size ablation.
	BucketBytes int
	// Selection picks WHICH k entries to read when k < k_union
	// (Sec 4.2); default SelectFirst, the paper prototype's choice.
	Selection SelectionPolicy
	// EvictPeriod overrides the main RAW ORAM's eviction period A
	// (0 = derive from the bucket size; Sec 4.4 Optimization 3).
	EvictPeriod int
	// Prefetch enables the LAORAM-style lookahead pipeline: BeginRound
	// hands the main-ORAM reads to a background fetcher (serves block per
	// row until loaded) and Finish defers the main-ORAM write-backs to
	// the next round's fetcher, so both overlap with the caller's compute
	// phase. StageRound lets two-phase callers start the next round's
	// plan + fetch before BeginRound is even called. The main ORAM
	// executes the identical op sequence either way, so results are
	// bit-identical with Prefetch on or off, and the flag is excluded
	// from ConfigDigest — checkpoints move freely between modes (any
	// deferred pass is drained at Snapshot time). Not supported for
	// BackendPathORAMPlus, whose per-access RNG draws happen at fetch
	// time rather than plan time.
	Prefetch bool
	// Shards partitions the embedding table into this many contiguous row
	// ranges, each with its own main ORAM, buffer ORAM, position map and
	// ε-FDP sampler, executed concurrently each round (0 or 1 =
	// monolithic). The round ε is unchanged: chunks already compose in
	// parallel, and per-shard chunks partition the same request set.
	Shards int
	// ShardWorkers bounds the goroutines driving shards concurrently
	// (0 = min(GOMAXPROCS, Shards)). The worker count never changes
	// results: each shard's RNG stream is derived from Seed and the shard
	// index alone.
	ShardWorkers int
	// ShardBase is the GLOBAL index of this controller's first shard — 0
	// for a standalone controller, the slice start for a cluster member
	// built by SliceConfig. It offsets the per-shard seed derivation,
	// storage prefixes, fault-plan device names, checkpoint section names
	// and health shard indices, so a controller serving shards
	// [ShardBase, ShardBase+Shards) of a larger decomposition is
	// state-identical, shard for shard, to the same slice of a
	// single-process run. Like ShardWorkers it is excluded from the
	// config digest: slice identity is pinned by the engine snapshot's
	// base field instead (and, for one-shard members, by the
	// shard-derived Seed).
	ShardBase int
	// Storage selects how the main-ORAM device is realized: the
	// discrete-event simulator (zero value) or a real file-backed device
	// doing page-aligned I/O against Storage.Dir (storage.KindFile) —
	// see internal/storage. Sharded controllers open one backing file
	// per shard. The DRAM-side device (buffer ORAM, position map, VTree,
	// stash) always stays simulated: it models memory, not a disk.
	// Like ShardWorkers, Storage is an operational knob excluded from
	// ConfigDigest — both backends store bit-identical contents and
	// share one snapshot format, so checkpoints move freely between a
	// simulated and a file-backed run of the same config.
	Storage storage.Spec
	// WrapDevice, when non-nil, interposes on every device the controller
	// provisions before the ORAMs are built over it — the fault-injection
	// seam (internal/fault's Plan.Wrap has this signature). Names are
	// "ssd"/"dram" monolithic and "shard<i>/ssd"/"shard<i>/dram" sharded.
	// Snapshot/Restore and PeekRow bypass the wrapper (they address the
	// underlying simulated device directly), so recovery and evaluation
	// see true stored bytes. Functions are not encodable, so WrapDevice is
	// naturally excluded from ConfigDigest: a faulted run restores
	// checkpoints from a fault-free run of the same config and vice versa.
	WrapDevice func(name string, d device.Device) device.Device
}

func (c *Config) setDefaults() {
	if c.ChunkSize == 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.MaxClientsPerRound == 0 {
		c.MaxClientsPerRound = 100
	}
	if c.MaxFeaturesPerClient == 0 {
		c.MaxFeaturesPerClient = 100
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
}

func (c *Config) validate() error {
	if c.NumRows == 0 {
		return errors.New("fedora: NumRows must be positive")
	}
	if c.Dim <= 0 {
		return errors.New("fedora: Dim must be positive")
	}
	if c.Epsilon < 0 {
		return errors.New("fedora: Epsilon must be non-negative")
	}
	if c.ChunkSize < 0 {
		return errors.New("fedora: ChunkSize must be non-negative")
	}
	if c.Shards < 0 {
		return errors.New("fedora: Shards must be non-negative")
	}
	if c.ShardBase < 0 {
		return errors.New("fedora: ShardBase must be non-negative")
	}
	if c.Shards > 1 && uint64(c.Shards) > c.NumRows {
		return fmt.Errorf("fedora: %d shards exceed the %d embedding rows", c.Shards, c.NumRows)
	}
	if c.Prefetch && c.Backend == BackendPathORAMPlus {
		return errors.New("fedora: Prefetch is not supported on the pathoram+ backend (its per-access RNG draws happen at fetch time, so overlapping them would diverge from the sync schedule)")
	}
	return nil
}

// Controller is the trusted FEDORA controller plus its devices.
//
// A Controller is safe for concurrent use: mu serializes every operation
// that touches round state or the ORAM pipeline, so multiple trainer
// goroutines may stage downloads/uploads through the active Round while
// the ORAMs themselves stay single-writer (the paper's controller is a
// single trusted unit; concurrency here is in the FL harness around it).
type Controller struct {
	cfg Config
	mu  sync.Mutex // guards round state and the ORAM pipeline below

	ssd  device.Storage // main ORAM home (SSD profile, or DRAM profile for BackendDRAM); simulator- or file-backed per cfg.Storage
	dram *device.Sim    // buffer ORAM, VTree, stash, position map (always simulated)

	raw  *raworam.ORAM  // BackendFedora / BackendDRAM
	path *pathoram.ORAM // BackendPathORAMPlus
	buf  *bufferoram.Buffer
	// One row in flight between the main ORAM (bytes) and the buffer ORAM
	// (floats); both sides copy what they keep.
	rowFloats []float32
	rowBytes  []byte
	// One chunk's merged main-ORAM read (readChunk): the row ids asked for
	// and their payloads, back to back, of which the chunk's loads have
	// decoded the first chunkNext. The slices are kept for their capacity.
	chunkIDs  []uint64
	chunkRows []byte
	chunkNext int
	chunkOps  []fetchOp // the sync path's plan of the chunk in flight
	// The union's sorting arrays, grown to the largest chunk seen.
	unionScratch obliv.UnionScratch

	mech    fdp.Mechanism
	effEps  float64 // per-value epsilon after group privacy
	sel     *selector
	src     *persist.Source // checkpointable state behind rng
	selSrc  *persist.Source // checkpointable state behind the selector's rng
	rng     *rand.Rand
	engine  *tee.Engine // nil unless cfg.Encrypt
	scratch *tee.Scratchpad
	round   uint64
	inRound bool
	cur     *Round // the open monolithic round, for AbortRound (nil between rounds)
	acct    fdp.Accountant

	// Lookahead pipeline state (cfg.Prefetch; see prefetch.go). staged is
	// the posted-but-not-adopted next round (top-level controller only —
	// sub-controllers are always driven single-phase by the engine);
	// pending is a finished round's deferred main-ORAM write-back pass,
	// drained by the next round's fetcher or at a drain point (PeekRow,
	// Snapshot, Close). prefetchHits/prefetchWasted accumulate per-round
	// staging outcomes for /metrics.
	staged         *stagedRound
	pending        *evictPass
	prefetchHits   uint64
	prefetchWasted uint64

	// Sharded mode (cfg.Shards > 1): eng routes rounds across the
	// sub-controllers in subs, each a full monolithic pipeline over its
	// contiguous row range; every ORAM/device field above is nil.
	eng  *shard.Engine
	subs []*Controller
}

// New builds a controller, provisioning simulated devices sized to the
// ORAM (the paper reports SSD lifetime for an SSD the size of the ORAM).
func New(cfg Config) (*Controller, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return newSharded(cfg)
	}
	c := &Controller{cfg: cfg}
	c.src = persist.NewSource(cfg.Seed + 3)
	c.rng = rand.New(c.src)
	c.selSrc = persist.NewSource(cfg.Seed + 29)
	c.sel = newSelector(cfg.Selection, rand.New(c.selSrc))

	var engine *tee.Engine
	if cfg.Encrypt {
		var key [32]byte
		key[0], key[1] = byte(cfg.Seed), byte(cfg.Seed>>8)
		engine = tee.NewEngine(key)
	}
	c.engine = engine
	c.scratch = tee.NewScratchpad(tee.DefaultScratchpadSize)
	if err := c.scratch.Reserve("key", 32); err != nil {
		return nil, err
	}
	if err := c.scratch.Reserve("root-counter", 8); err != nil {
		return nil, err
	}
	if cfg.HasScratchpad {
		if err := c.scratch.Reserve("eviction-scratch", c.scratch.Free()); err != nil {
			return nil, err
		}
	}

	blockSize := 4 * cfg.Dim
	c.rowFloats = make([]float32, cfg.Dim)
	c.rowBytes = make([]byte, blockSize)
	var initFn func(uint64) []byte
	if cfg.InitRow != nil {
		dim := cfg.Dim
		initFn = func(row uint64) []byte {
			f := cfg.InitRow(row)
			if len(f) != dim {
				panic(fmt.Sprintf("fedora: InitRow returned %d floats, want %d", len(f), dim))
			}
			b := make([]byte, 4*dim)
			encodeF32s(b, f)
			return b
		}
	}

	// Provision devices. The main device's profile depends on the backend.
	mainProfile := device.PM9A1SSD
	if cfg.Backend == BackendDRAM {
		mainProfile = device.DDR5DRAM
	}
	// Size via a trial geometry: construct the ORAM against a probe
	// device, then recreate the real one at exactly the required size.
	probe := device.NewSim(mainProfile, 1<<62)
	dram := device.NewDRAM(1 << 62)
	c.dram = dram
	// The ORAMs run over the (optionally fault-wrapped) device views;
	// c.ssd/c.dram stay the raw simulators so Snapshot/Restore and stats
	// bypass any injector.
	dramDev := c.wrapDevice("dram", dram)

	switch cfg.Backend {
	case BackendFedora, BackendDRAM:
		rawCfg := raworam.Config{
			NumBlocks:     cfg.NumRows,
			BlockSize:     blockSize,
			EvictPeriod:   cfg.EvictPeriod,
			Seed:          cfg.Seed,
			Engine:        engine,
			Phantom:       cfg.Phantom,
			HasScratchpad: cfg.HasScratchpad,
			InitFn:        initFn,
		}
		if cfg.BucketBytes > 0 {
			rawCfg.BucketSlots = bucketSlotsFor(cfg.BucketBytes, blockSize, engine != nil)
		}
		trial, err := raworam.New(rawCfg, probe, dram)
		if err != nil {
			return nil, err
		}
		c.ssd, err = storage.Open("ssd", mainProfile, trial.RequiredBytes(), cfg.Storage)
		if err != nil {
			return nil, fmt.Errorf("fedora: main device: %w", err)
		}
		c.raw, err = raworam.New(rawCfg, c.wrapDevice("ssd", c.ssd), dramDev)
		if err != nil {
			c.ssd.Close()
			return nil, err
		}
	case BackendPathORAMPlus:
		// SSD-friendly layout (the prior-work optimizations the paper
		// adopts, Sec 6.1): buckets sized to fill whole 4 KB pages rather
		// than Path ORAM's classic Z=4, so no page capacity is wasted.
		pageBytes := cfg.BucketBytes
		if pageBytes == 0 {
			pageBytes = 4096
		}
		pCfg := pathoram.Config{
			NumBlocks:         cfg.NumRows,
			BlockSize:         blockSize,
			BucketSlots:       bucketSlotsFor(pageBytes, blockSize, engine != nil),
			Amplification:     8,
			Seed:              cfg.Seed,
			Engine:            engine,
			Phantom:           cfg.Phantom,
			AlignBucketToPage: true,
			InitFn:            initFn,
		}
		trial, err := pathoram.New(pCfg, probe)
		if err != nil {
			return nil, err
		}
		c.ssd, err = storage.Open("ssd", mainProfile, trial.RequiredBytes(), cfg.Storage)
		if err != nil {
			return nil, fmt.Errorf("fedora: main device: %w", err)
		}
		c.path, err = pathoram.New(pCfg, c.wrapDevice("ssd", c.ssd))
		if err != nil {
			c.ssd.Close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fedora: unknown backend %v", cfg.Backend)
	}

	buf, err := bufferoram.New(bufferoram.Config{
		Capacity:     cfg.MaxClientsPerRound * cfg.MaxFeaturesPerClient,
		Dim:          cfg.Dim,
		Aggregator:   cfg.Aggregator,
		LearningRate: cfg.LearningRate,
		Seed:         cfg.Seed + 11,
		Phantom:      cfg.Phantom,
	}, dramDev)
	if err != nil {
		c.ssd.Close()
		return nil, err
	}
	c.buf = buf

	// ε-FDP mechanism. ε = 0 means perfect FDP: the paper achieves it
	// with the Delta shape (always k = K). Group privacy divides ε by the
	// padded per-client feature count when hiding the count itself.
	c.effEps = cfg.EffectiveEpsilon()
	shape := cfg.Shape
	if cfg.Epsilon == 0 {
		shape = fdp.Delta{}
	}
	c.mech = fdp.Mechanism{Epsilon: c.effEps, Shape: shape}
	return c, nil
}

// wrapDevice applies Config.WrapDevice, tolerating nil returns.
func (c *Controller) wrapDevice(name string, d device.Device) device.Device {
	if c.cfg.WrapDevice == nil {
		return d
	}
	if w := c.cfg.WrapDevice(name, d); w != nil {
		return w
	}
	return d
}

// Health reports the controller's shard-health rollup. A monolithic
// controller is a single always-live pseudo-shard: it has no quarantine
// path (a device fault fails the round loudly), so it reports healthy
// with zero event counters.
func (c *Controller) Health() shard.HealthReport {
	if c.eng != nil {
		return c.eng.Health()
	}
	return shard.HealthReport{
		Status: shard.StatusHealthy,
		Shards: []shard.ShardHealth{{Shard: c.cfg.ShardBase, Rows: c.cfg.NumRows}},
	}
}

// AbortRound force-closes any open round WITHOUT running write-back,
// leaving the pipeline quiesced but the in-memory ORAM state dirty; the
// caller is expected to Restore a trusted snapshot before serving again
// (the shard engine's quarantine/recover path does exactly that). It is
// idempotent and safe with no round open. A sharded controller also
// force-quiesces its engine and every sub-controller — the orphaned
// round a coordinator fence leaves behind would otherwise block
// Snapshot/Restore forever.
func (c *Controller) AbortRound() {
	// Settle any staged begin first: until its handshake completes, the
	// background goroutine owns the round state. The wait is short — the
	// begin goroutine only plans; the heavy I/O runs on the fetcher,
	// which stops at its next op once the round is marked done below.
	c.mu.Lock()
	s := c.staged
	c.staged = nil
	c.mu.Unlock()
	if s != nil && s.started {
		<-s.done
		if s.round != nil {
			c.mu.Lock()
			s.round.done = true
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	if c.cur != nil {
		c.cur.done = true // stragglers see ErrRoundFinished, not dirty state
		c.cur = nil
	}
	c.pending = nil // half-applied passes leave the ORAM dirty; Restore follows
	c.inRound = false
	eng := c.eng
	c.mu.Unlock()
	if eng != nil {
		eng.Abort()
	}
}

// bucketSlotsFor derives Z so the stored bucket fits bucketBytes.
func bucketSlotsFor(bucketBytes, blockSize int, encrypted bool) int {
	avail := bucketBytes
	if encrypted {
		avail -= tee.TagSize
	}
	z := avail / (12 + blockSize)
	if z < 2 {
		z = 2
	}
	return z
}

// Backend reports the configured backend.
func (c *Controller) Backend() Backend { return c.cfg.Backend }

// NumRows reports the embedding-table height N (the valid row space is
// [0, NumRows); serving layers use it to reject out-of-range requests
// before they reach the round pipeline).
func (c *Controller) NumRows() uint64 { return c.cfg.NumRows }

// Dim reports the embedding dimension (words per row on the upload
// plane; serving layers validate gradient shapes against it).
func (c *Controller) Dim() int { return c.cfg.Dim }

// EffectiveEpsilon is the per-value ε after group privacy.
func (c *Controller) EffectiveEpsilon() float64 { return c.effEps }

// MainORAMBytes is the main ORAM's device footprint (= the SSD size used
// for lifetime reporting), summed across shards when sharded.
func (c *Controller) MainORAMBytes() uint64 {
	if c.eng != nil {
		var total uint64
		for _, s := range c.subs {
			total += s.MainORAMBytes()
		}
		return total
	}
	if c.path != nil {
		return c.path.RequiredBytes()
	}
	return c.raw.RequiredBytes()
}

// DRAMResidentBytes is the capacity the design must provision in DRAM:
// buffer ORAM + position map + VTree (FEDORA backends) + stash headroom.
// Summed across shards when sharded.
func (c *Controller) DRAMResidentBytes() uint64 {
	if c.eng != nil {
		var total uint64
		for _, s := range c.subs {
			total += s.DRAMResidentBytes()
		}
		return total
	}
	total := c.buf.RequiredBytes()
	total += c.cfg.NumRows * 4 // position map
	if c.raw != nil {
		total += c.raw.VTreeBytes()
	}
	return total
}

// SSDDevice / DRAMDevice expose the underlying devices for stats
// capture. A sharded controller has one device pair per shard; these
// return shard 0's — use SSDStats / DRAMStats for the aggregate
// counters. The main device is a device.Storage: simulator- or file-
// backed depending on Config.Storage.
func (c *Controller) SSDDevice() device.Storage {
	if c.eng != nil {
		return c.subs[0].ssd
	}
	return c.ssd
}

func (c *Controller) DRAMDevice() *device.Sim {
	if c.eng != nil {
		return c.subs[0].dram
	}
	return c.dram
}

// SSDStats / DRAMStats aggregate the device counters across all shards
// (identical to the single device's stats when monolithic).
func (c *Controller) SSDStats() device.Stats {
	if c.eng != nil {
		var total device.Stats
		for _, s := range c.subs {
			total.Add(s.ssd.Stats())
		}
		return total
	}
	return c.ssd.Stats()
}

func (c *Controller) DRAMStats() device.Stats {
	if c.eng != nil {
		var total device.Stats
		for _, s := range c.subs {
			total.Add(s.dram.Stats())
		}
		return total
	}
	return c.dram.Stats()
}

// Close releases the controller's devices — with the file backend, the
// per-shard backing files. The controller must be quiesced; using it
// after Close fails on the first device access. Safe to call on a
// simulator-backed controller (the simulator's Close is a no-op) and
// idempotent either way.
func (c *Controller) Close() error {
	if c.eng != nil {
		var firstErr error
		for _, s := range c.subs {
			if err := s.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	c.mu.Lock()
	err := c.drainEvictLocked() // flush any deferred write-back pass
	c.mu.Unlock()
	if serr := c.ssd.Close(); serr != nil && err == nil {
		err = serr
	}
	if derr := c.dram.Close(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// StorageReports returns the real-I/O telemetry of every file-backed
// device the controller provisioned (per-op latency percentiles, fsync
// counts, O_DIRECT state), one entry per shard when sharded. Empty on a
// fully simulated controller — the simulator has modelled time, not
// measured latencies.
func (c *Controller) StorageReports() []storage.Report {
	if c.eng != nil {
		var out []storage.Report
		for _, s := range c.subs {
			out = append(out, s.StorageReports()...)
		}
		return out
	}
	if f, ok := c.ssd.(*storage.File); ok {
		return []storage.Report{f.Report()}
	}
	return nil
}

// SyncStorage flushes every file-backed device to disk (a durability
// barrier for checkpoint boundaries); a no-op on simulated devices.
func (c *Controller) SyncStorage() error {
	if c.eng != nil {
		for _, s := range c.subs {
			if err := s.SyncStorage(); err != nil {
				return err
			}
		}
		return nil
	}
	if f, ok := c.ssd.(*storage.File); ok {
		return f.Sync()
	}
	return nil
}

// Shards reports the shard count (1 when monolithic).
func (c *Controller) Shards() int {
	if c.eng != nil {
		return c.eng.Shards()
	}
	return 1
}

// Round returns the number of completed rounds.
func (c *Controller) Round() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

// MainEvictPeriod reports the main ORAM's eviction period A (0 for the
// Path ORAM+ backend, which has no eviction period). Sharded controllers
// report shard 0's period (all shards share the derivation rule).
func (c *Controller) MainEvictPeriod() int {
	if c.eng != nil {
		return c.subs[0].MainEvictPeriod()
	}
	if c.raw == nil {
		return 0
	}
	return c.raw.EvictPeriod()
}

// PeekRow returns the current value of an embedding row without any ORAM
// traffic or state change. It exists so evaluation code can score the
// global model; a deployment has no such backdoor.
func (c *Controller) PeekRow(row uint64) ([]float32, error) {
	if c.eng != nil {
		if row >= c.cfg.NumRows {
			return nil, fmt.Errorf("fedora: peek row %d out of range %d", row, c.cfg.NumRows)
		}
		si := shard.ShardOf(c.cfg.NumRows, c.cfg.Shards, row)
		return c.subs[si].PeekRow(row - shard.Base(c.cfg.NumRows, c.cfg.Shards, si))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A deferred write-back pass holds finished-round updates the peek
	// must observe; drain it so evaluation sees the post-round model.
	if err := c.drainEvictLocked(); err != nil {
		return nil, err
	}
	var (
		payload []byte
		err     error
	)
	if c.path != nil {
		payload, err = c.path.Peek(row)
	} else {
		payload, err = c.raw.Peek(row)
	}
	if err != nil {
		return nil, err
	}
	out := make([]float32, c.cfg.Dim)
	decodeF32s(out, payload)
	return out, nil
}

// encodeF32s packs floats little-endian (shared with bufferoram's codec).
func encodeF32s(data []byte, f []float32) {
	for i, v := range f {
		bits := math.Float32bits(v)
		off := i * 4
		data[off] = byte(bits)
		data[off+1] = byte(bits >> 8)
		data[off+2] = byte(bits >> 16)
		data[off+3] = byte(bits >> 24)
	}
}

// decodeF32s unpacks len(f) floats from data into f.
func decodeF32s(f []float32, data []byte) {
	for i := range f {
		off := i * 4
		bits := uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24
		f[i] = math.Float32frombits(bits)
	}
}
