// Package cluster implements the distributed shard placement layer: a
// coordinator that serves ONE global row-space by fanning FL rounds out
// to member fedora-server processes, each hosting a contiguous shard
// slice of the global sharded config.
//
// The coordinator implements api.Controller (plus the Snapshotter,
// Recoverer and Aborter capabilities), so the existing api.Server
// fronts it unchanged — a remote trainer pointed at the coordinator
// speaks the same v2 protocol it would speak to a single process, and
// produces a bit-identical model fingerprint at any node count. The
// parity argument stacks three invariants:
//
//   - routing is replicated exactly: real rows by the balanced
//     contiguous split (shard.ShardOf), dummy padding by global
//     (client, position) round-robin — the same pure functions the
//     single-process engine uses;
//   - each member, built with fedora.SliceConfig, is state-identical
//     to the same slice of a single-process run (the balanced-partition
//     composition lemma documented there), so handing it the per-shard
//     request lists the engine would have produced evolves the same
//     ORAM state;
//   - everything that determines the model — selection, round seeds,
//     merge order — lives on the trainer side, exactly as in the
//     remote-trainer deployment of PR 4.
//
// Failure handling extends PR 5's shard quarantine to node loss: a
// member that fails a probe or a round operation is FENCED — its shards
// behave like quarantined shards (rows unavailable, rounds degrade over
// the survivors) — and recovery is shard migration: per-shard
// checkpoint sections are replayed onto the fenced node once reachable
// again, or onto a replacement process that registers via
// /cluster/join.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/storage"
)

// NodeSpec declares one member's placement: the server URL and the
// contiguous GLOBAL shard slice [First, First+Count) it serves. The
// member process must have been started with the matching slice
// (fedora-server -member-first/-member-count over the same global
// config) or round traffic is rejected by its own row-range checks.
type NodeSpec struct {
	URL   string
	First int
	Count int
}

// Config parameterizes a Coordinator.
type Config struct {
	// Fedora is the GLOBAL controller config (ShardBase 0). The
	// coordinator never builds this controller — members build slices of
	// it — but uses it for routing geometry, the effective ε, and the
	// config digest stamped on assembled checkpoints.
	Fedora fedora.Config
	// Nodes lists the members in slice order; together they must cover
	// [0, Shards) exactly, with no gaps or overlaps.
	Nodes []NodeSpec
	// Client is the SDK template for member connections (BaseURL is
	// overridden per node). Keep MaxRetries/backoff small: the retry
	// budget is also the node-failure detection latency.
	Client client.Config
	// Checkpoint, when set, supplies the newest assembled cluster
	// snapshot (the blob Coordinator.Snapshot returned) for join-time
	// migration: a replacement node registering via /cluster/join gets
	// its shards' sections replayed from it. Without it, joins are
	// registered but recovery waits for the serving layer's
	// auto-recovery pass.
	Checkpoint func() ([]byte, error)
	// ProbeInterval is the background health-probe period for
	// StartProbes (0 = 5s). Consecutive all-fail passes back the probes
	// off exponentially (capped at 8× the interval) with ±25% jitter, so
	// a fleet of coordinators does not hammer a struggling member in
	// lockstep.
	ProbeInterval time.Duration
	// Manager, when set, makes the coordinator durable: every round is
	// written to a round WAL under the manager's directory before it fans
	// out, cluster checkpoints are saved there on the CheckpointEvery
	// cadence, and Recover replays checkpoint + WAL after a crash or a
	// standby promotion.
	Manager *persist.Manager
	// CheckpointEvery is the healthy-round checkpoint cadence when
	// Manager is set (0 or negative = every round).
	CheckpointEvery int
}

// member is one node's runtime state. Mutable fields are guarded by the
// coordinator mutex; the SDK client is safe for concurrent use.
type member struct {
	spec    NodeSpec
	cli     *client.Client
	rowBase uint64 // first global row of the slice
	rows    uint64 // rows the slice owns

	fenced  bool
	lastErr string
	// health is the member's last successfully fetched /healthz report
	// (zero value until the first probe).
	health   api.HealthzResponse
	hasProbe bool
}

// Coordinator fans rounds out across the members. It implements
// api.Controller, api.Snapshotter, api.Recoverer and api.Aborter; serve
// it with api.NewServerFor.
type Coordinator struct {
	cfg     Config
	norm    fedora.Config // defaults-applied global config
	shards  int           // S ≥ 1
	numRows uint64
	digest  uint64
	effEps  float64
	nodeOf  []int // global shard index → member index
	members []*member

	mu          sync.Mutex
	round       uint64
	inRound     bool
	lastIDs     []string // per-member server round IDs of the latest begin
	stageSeq    uint64   // StageRound fan-outs issued (idempotency keys)
	quarantines uint64   // node fence events
	recoveries  uint64   // node unfence events
	// The latest checkpointNow outcome, for /cluster/status: the round the
	// newest checkpoint sealed, and the error of the latest attempt (""
	// once one succeeds).
	lastCkptRound uint64
	lastCkptErr   string

	// epoch is this coordinator incarnation's fencing token: every
	// member-facing call carries it, and members reject lower epochs.
	// deposed latches once any member answers stale_epoch — a newer
	// coordinator has fenced us out, so rounds must fail loudly instead
	// of quarantining healthy nodes.
	epoch   atomic.Uint64
	deposed atomic.Bool

	// Durability (nil/zero without Config.Manager): the round WAL and
	// checkpoint cadence behind Recover.
	mgr       *persist.Manager
	ckptEvery int
	walMu     sync.Mutex
	wal       *persist.WAL
	walOps    int // ops logged in the current round (applied-frame keys); guarded by walMu
	replaying atomic.Bool

	probeStop chan struct{}
	probeDone chan struct{}
}

// New validates the placement and builds the coordinator. Every slice
// is re-derived through fedora.SliceConfig, so the same rules apply as
// when starting the members themselves (contiguity, bounds, and the
// HideCount one-shard-per-member restriction).
func New(cfg Config) (*Coordinator, error) {
	// SliceConfig over the whole range applies setDefaults+validate and
	// returns the normalized global config — the one whose digest equals
	// a single-process controller's ConfigDigest.
	shards := cfg.Fedora.Shards
	if shards < 1 {
		shards = 1
	}
	norm, err := fedora.SliceConfig(cfg.Fedora, 0, shards)
	if err != nil {
		return nil, err
	}
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	c := &Coordinator{
		cfg:     cfg,
		norm:    norm,
		shards:  shards,
		numRows: norm.NumRows,
		digest:  norm.Digest(),
		effEps:  norm.EffectiveEpsilon(),
		nodeOf:  make([]int, shards),
	}
	next := 0
	for n, spec := range cfg.Nodes {
		if spec.URL == "" {
			return nil, fmt.Errorf("cluster: node %d: URL required", n)
		}
		if spec.First != next {
			return nil, fmt.Errorf("cluster: node %d serves shards [%d,%d), expected the slice to start at %d (placements must tile [0,%d) in order)",
				n, spec.First, spec.First+spec.Count, next, shards)
		}
		if _, err := fedora.SliceConfig(cfg.Fedora, spec.First, spec.Count); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", n, err)
		}
		m, err := c.newMember(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", n, err)
		}
		c.members = append(c.members, m)
		for s := spec.First; s < spec.First+spec.Count; s++ {
			c.nodeOf[s] = n
		}
		next += spec.Count
	}
	if next != shards {
		return nil, fmt.Errorf("cluster: placements cover shards [0,%d) of %d", next, shards)
	}
	if cfg.Manager != nil {
		c.mgr = cfg.Manager
		c.ckptEvery = cfg.CheckpointEvery
		if c.ckptEvery <= 0 {
			c.ckptEvery = 1
		}
		wal, err := persist.OpenWAL(cfg.Manager.WALPath())
		if err != nil {
			return nil, fmt.Errorf("cluster: open round WAL: %w", err)
		}
		c.wal = wal
	}
	return c, nil
}

// SetEpoch installs this coordinator's fencing epoch: it is stamped on
// every member-facing call (the SDK sends it as the X-Fedora-Epoch
// header) and baked into round idempotency keys, so two coordinator
// incarnations can never collide on a member's round-key cache. Call it
// before any round traffic; a later call with a higher epoch (a
// promotion) also clears the deposed latch.
func (c *Coordinator) SetEpoch(e uint64) {
	c.epoch.Store(e)
	c.deposed.Store(false)
	// Under c.mu: Join swaps member entries concurrently, and a member
	// swapped in mid-iteration must not keep a stale (or zero) epoch —
	// Join re-stamps its client from c.epoch inside the same critical
	// section, so every client ends up at the newest epoch either way.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		m.cli.SetEpoch(e)
	}
}

// Epoch reports the coordinator's current fencing epoch (0 = unfenced
// single-coordinator operation).
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// Deposed reports whether a member has rejected this coordinator with
// stale_epoch — proof a newer incarnation holds the cluster. A deposed
// coordinator must stop driving rounds; its callers see errors wrapping
// api.ErrStaleEpoch.
func (c *Coordinator) Deposed() bool { return c.deposed.Load() }

// memberCode is the envelope code a member answered a failed call with
// ("" for a transport error or a reply that was no envelope).
func memberCode(err error) string {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code
	}
	return ""
}

// staleEpoch reports whether a member call failed because THIS
// coordinator's epoch is stale.
func staleEpoch(err error) bool { return memberCode(err) == api.CodeStaleEpoch }

// newMember builds a member's runtime state (SDK client + row range).
func (c *Coordinator) newMember(spec NodeSpec) (*member, error) {
	cc := c.cfg.Client
	cc.BaseURL = strings.TrimRight(spec.URL, "/")
	cli, err := client.New(cc)
	if err != nil {
		return nil, err
	}
	// A member built after SetEpoch (a /cluster/join replacement) must
	// carry the fence too, or its traffic goes out unfenced and a
	// deposed coordinator's writes would land on it. Join re-stamps
	// under c.mu to close the race with a concurrent SetEpoch.
	if e := c.epoch.Load(); e != 0 {
		cli.SetEpoch(e)
	}
	rowBase := shard.Base(c.numRows, c.shards, spec.First)
	rowEnd := c.numRows
	if spec.First+spec.Count < c.shards {
		rowEnd = shard.Base(c.numRows, c.shards, spec.First+spec.Count)
	}
	return &member{spec: spec, cli: cli, rowBase: rowBase, rows: rowEnd - rowBase}, nil
}

// fence isolates node n. Idempotent; the first call records the cause.
func (c *Coordinator) fence(n int, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[n]
	if m.fenced {
		return
	}
	m.fenced = true
	m.lastErr = cause.Error()
	c.quarantines++
}

// unfence returns node n to service after a successful migration.
func (c *Coordinator) unfence(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[n]
	if !m.fenced {
		return
	}
	m.fenced = false
	m.lastErr = ""
	c.recoveries++
}

// isFenced reads node n's fence flag.
func (c *Coordinator) isFenced(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[n].fenced
}

// endRound clears the in-flight flag.
func (c *Coordinator) endRound() {
	c.mu.Lock()
	c.inRound = false
	c.mu.Unlock()
}

// forEachMember runs fn(n) for every member concurrently and waits.
func (c *Coordinator) forEachMember(fn func(n int)) {
	var wg sync.WaitGroup
	for n := range c.members {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

// ---- api.Controller getters ------------------------------------------

// Round reports how many rounds have begun (mirroring
// fedora.Controller.Round: the counter advances at begin).
func (c *Coordinator) Round() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

// NumRows reports the GLOBAL embedding-table height.
func (c *Coordinator) NumRows() uint64 { return c.numRows }

// Dim reports the embedding dimension of the global config (the wire
// upload plane sizes its aggregator from it).
func (c *Coordinator) Dim() int { return c.norm.Dim }

// Shards reports the GLOBAL shard count.
func (c *Coordinator) Shards() int { return c.shards }

// BackendName labels the backend for status reporting.
func (c *Coordinator) BackendName() string {
	return "cluster/" + c.norm.Backend.String()
}

// EffectiveEpsilon reports the per-value ε of the global config.
func (c *Coordinator) EffectiveEpsilon() float64 { return c.effEps }

// MainORAMBytes sums the members' main-ORAM footprints (best effort:
// unreachable members contribute zero).
func (c *Coordinator) MainORAMBytes() uint64 {
	var total uint64
	for st := range c.memberStatuses() {
		total += st.MainORAMBytes
	}
	return total
}

// DRAMResidentBytes sums the members' DRAM-resident footprints.
func (c *Coordinator) DRAMResidentBytes() uint64 {
	var total uint64
	for st := range c.memberStatuses() {
		total += st.DRAMBytes
	}
	return total
}

// SSDStats aggregates member SSD byte counters (the status wire shape
// carries bytes only; op counts and busy time stay per-member).
func (c *Coordinator) SSDStats() device.Stats {
	var agg device.Stats
	for st := range c.memberStatuses() {
		agg.BytesRead += st.SSDBytesRead
		agg.BytesWritten += st.SSDBytesWritten
	}
	return agg
}

// DRAMStats is not aggregated across the wire; it reports zero.
func (c *Coordinator) DRAMStats() device.Stats { return device.Stats{} }

// StorageReports are per-process telemetry; the coordinator has none.
func (c *Coordinator) StorageReports() []storage.Report { return nil }

// memberStatuses fans a status query out to the live members and yields
// the successful replies.
func (c *Coordinator) memberStatuses() <-chan api.StatusResponse {
	out := make(chan api.StatusResponse, len(c.members))
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for n, m := range c.members {
			if c.isFenced(n) {
				continue
			}
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				if st, err := m.cli.Status(context.Background()); err == nil {
					out <- st
				}
			}(m)
		}
		wg.Wait()
	}()
	return out
}

// PeekRow reads one global row through the owning member's evaluation
// backdoor. Rows on a fenced node return ErrShardUnavailable (wrapped),
// exactly like rows on a quarantined shard.
func (c *Coordinator) PeekRow(row uint64) ([]float32, error) {
	if row >= c.numRows {
		return nil, fmt.Errorf("cluster: row %d out of range %d", row, c.numRows)
	}
	n := c.nodeOf[shard.ShardOf(c.numRows, c.shards, row)]
	if c.isFenced(n) {
		return nil, c.unavailable(n)
	}
	entry, err := c.members[n].cli.PeekRow(context.Background(), row-c.members[n].rowBase)
	if err != nil {
		return nil, err
	}
	return entry, nil
}

// unavailable builds the wrapped ErrShardUnavailable for node n.
func (c *Coordinator) unavailable(n int) error {
	c.mu.Lock()
	m := c.members[n]
	cause := m.lastErr
	c.mu.Unlock()
	if cause != "" {
		return fmt.Errorf("cluster: node %d (%s): %w: %s", n, m.spec.URL, fedora.ErrShardUnavailable, cause)
	}
	return fmt.Errorf("cluster: node %d (%s): %w", n, m.spec.URL, fedora.ErrShardUnavailable)
}

// Health assembles the GLOBAL shard-health report: every live member is
// probed (fencing it on transport failure), fenced members report all
// their shards quarantined, and live members pass their own per-shard
// quarantine detail through by global index. The same report shape the
// single-process engine produces, so /healthz and the auto-recovery
// machinery work unchanged on a coordinator.
func (c *Coordinator) Health() shard.HealthReport {
	c.probeAll()
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := shard.HealthReport{Shards: make([]shard.ShardHealth, c.shards)}
	down := 0
	for g := 0; g < c.shards; g++ {
		m := c.members[c.nodeOf[g]]
		sh := shard.ShardHealth{Shard: g, Rows: shard.Rows(c.numRows, c.shards, g)}
		if m.fenced {
			sh.Quarantined = true
			sh.Cause = m.lastErr
		} else if m.hasProbe {
			for _, msh := range m.health.Shards {
				if msh.Shard == g {
					sh.Quarantined = msh.Quarantined
					sh.Cause = msh.Cause
					break
				}
			}
		}
		if sh.Quarantined {
			down++
		}
		rep.Shards[g] = sh
	}
	switch down {
	case 0:
		rep.Status = shard.StatusHealthy
	case c.shards:
		rep.Status = shard.StatusUnavailable
	default:
		rep.Status = shard.StatusDegraded
	}
	// Node-level events, plus the members' own shard-level events.
	rep.Quarantines = c.quarantines
	rep.Recoveries = c.recoveries
	for _, m := range c.members {
		if m.hasProbe && !m.fenced {
			rep.Quarantines += m.health.Quarantines
			rep.Recoveries += m.health.Recoveries
		}
	}
	return rep
}

// probeAll probes every live member's /healthz, caching the report and
// fencing nodes whose probe fails at the transport level. A member
// answering 503 (all its shards quarantined) is reachable — it stays
// live and its quarantine detail flows into the global report. The
// return value is the number of probes that failed this pass (nodes
// already fenced are skipped, not counted), which the background loop
// uses to back off.
func (c *Coordinator) probeAll() int {
	var failed atomic.Int64
	c.forEachMember(func(n int) {
		if c.isFenced(n) {
			return
		}
		m := c.members[n]
		hz, err := m.cli.Healthz(context.Background())
		if err != nil {
			failed.Add(1)
			c.fence(n, err)
			return
		}
		c.mu.Lock()
		m.health = hz
		m.hasProbe = true
		c.mu.Unlock()
	})
	return int(failed.Load())
}

// probeDelay computes the wait before the next background probe pass:
// the base interval while probes succeed, doubling per consecutive
// failing pass up to 8× base, always with ±25% jitter. The backoff
// keeps a coordinator from hammering a member that is struggling to
// come back; the jitter desynchronizes the probe storms of a primary
// and a promoted standby (or several coordinators sharing members)
// that would otherwise tick in lockstep.
func probeDelay(base time.Duration, failStreak int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < failStreak && d < 8*base; i++ {
		d *= 2
	}
	if d > 8*base {
		d = 8 * base
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
}

// StartProbes launches the background health-probe loop. Stop it with
// StopProbes (or let process exit take it).
func (c *Coordinator) StartProbes() {
	c.mu.Lock()
	if c.probeStop != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.probeStop, c.probeDone = stop, done
	c.mu.Unlock()
	interval := c.cfg.ProbeInterval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		streak := 0
		t := time.NewTimer(probeDelay(interval, streak, rng))
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if c.probeAll() > 0 {
				streak++
			} else {
				streak = 0
			}
			t.Reset(probeDelay(interval, streak, rng))
		}
	}()
}

// StopProbes stops the background probe loop (idempotent).
func (c *Coordinator) StopProbes() {
	c.mu.Lock()
	stop, done := c.probeStop, c.probeDone
	c.probeStop, c.probeDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// StageRound implements the two-phase contract across the cluster: the
// next round's request lists route through the same per-member split as
// BeginRound's and post to each live member's latest local round, so
// prefetch-enabled members start their ORAM reads while the trainer is
// still training. Staging is best-effort at the node level — a member
// that cannot stage (fenced, or no local round yet) simply runs its next
// begin cold, without fencing — but a malformed batch fails validation
// exactly as it would at BeginRound.
func (c *Coordinator) StageRound(requests [][]uint64) error {
	perNode, err := c.route(requests)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stageSeq++
	seq := c.stageSeq
	ids := append([]string(nil), c.lastIDs...)
	c.mu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	var errMu sync.Mutex
	var firstErr error
	c.forEachMember(func(n int) {
		if c.isFenced(n) || ids[n] == "" {
			return
		}
		_, err := c.members[n].cli.Stage(context.Background(), ids[n],
			perNode[n], fmt.Sprintf("coord-e%d-g%d-n%d", c.epoch.Load(), seq, n))
		if err != nil {
			if staleEpoch(err) {
				c.deposed.Store(true)
			}
			errMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: stage on node %d: %w", n, err)
			}
			errMu.Unlock()
		}
	})
	return firstErr
}

// AbortRound force-closes the coordinator's round bookkeeping (the
// api.Aborter capability the admin-restore path uses). Members'
// orphaned rounds are cleaned up when sections are replayed onto them —
// the admin restore endpoints abort server-side first.
func (c *Coordinator) AbortRound() {
	c.mu.Lock()
	c.inRound = false
	c.mu.Unlock()
}
