// Package cluster implements the distributed shard placement layer: a
// coordinator that serves ONE global row-space by fanning FL rounds out
// to member fedora-server processes, each hosting a contiguous shard
// slice of the global sharded config.
//
// The coordinator implements api.Controller, so the existing api.Server
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
//
// Checkpoints are streamed: the round that takes one waits only until
// each member has encoded its shard sections and answered with headers,
// and the background saver writes the checkpoint file from the open
// replies, so the coordinator holds no copy of a checkpoint (persist.go
// and wal.go's checkpointSave).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
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
	// ProbeInterval is the background health-probe period for
	// StartProbes (0 = 5s). Consecutive all-fail passes back the probes
	// off exponentially (capped at 8× the interval) with ±25% jitter, so
	// a fleet of coordinators does not hammer a struggling member in
	// lockstep.
	ProbeInterval time.Duration
	// Manager, when set, makes the coordinator durable: every round is
	// written to a round WAL under the manager's directory before it fans
	// out, cluster checkpoints are saved there on the CheckpointEvery
	// cadence, Recover replays checkpoint + WAL after a crash or a
	// standby promotion, and a node registering via /cluster/join gets
	// its shards migrated from the newest checkpoint. Without it a join
	// registers the node fenced.
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
	// health is the member's entry in the member view Health reads: its
	// last /healthz report (zero until the first probe), less the shards
	// a restore has since returned to service.
	health api.HealthzResponse
}

// Coordinator fans rounds out across the members. It implements
// api.Controller; serve it with api.NewServerFor.
type Coordinator struct {
	cfg     Config
	norm    fedora.Config // defaults-applied global config
	shards  int           // S ≥ 1
	numRows uint64
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
	// The latest checkpoint outcome, for /cluster/status: the round the
	// newest durable checkpoint sealed, and the error of the latest
	// attempt ("" once one succeeds).
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
	// walMark is the WAL's end when the newest checkpoint snapshot was
	// taken: its after-save cut drops the frames before it. Guarded by
	// walMu.
	walMark   int64
	replaying atomic.Bool
	// savePoint, when set, runs before each guarded step of a checkpoint
	// save ("rename", "WAL cut"); an error stops the save there, as a
	// crash at that point would. Tests set it.
	savePoint func(step string) error

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
	// a single-process controller's config digest.
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

// parallel runs fn(i) for every i in [0, k), each on its own
// goroutine, and waits for all of them: the coordinator's one fan-out.
func parallel(k int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// forEachMember runs fn(n) for every member concurrently and waits.
func (c *Coordinator) forEachMember(fn func(n int)) { parallel(len(c.members), fn) }

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

// EffectiveEpsilon reports the per-value ε of the global config.
func (c *Coordinator) EffectiveEpsilon() float64 { return c.effEps }

// Telemetry asks every live member for its /v2/status once and sums the
// footprints and SSD byte counters (best effort: a fenced or unreachable
// member adds nothing). The status wire shape carries SSD bytes only, so
// op counts, busy time, DRAM counters and storage reports stay
// per-member and read zero here.
func (c *Coordinator) Telemetry() fedora.Telemetry {
	t := fedora.Telemetry{Backend: "cluster/" + c.norm.Backend.String(), Shards: c.shards}
	var mu sync.Mutex
	c.forEachMember(func(n int) {
		if c.isFenced(n) {
			return
		}
		st, err := c.members[n].cli.Status(context.Background())
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		t.MainORAMBytes += st.MainORAMBytes
		t.DRAMResidentBytes += st.DRAMBytes
		t.SSD.BytesRead += st.SSDBytesRead
		t.SSD.BytesWritten += st.SSDBytesWritten
	})
	return t
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

// Health assembles the GLOBAL shard-health report from the member view,
// without I/O: every shard of a fenced member reads quarantined, and a
// live member's shards carry the detail it last reported, by global
// index. The same report shape the single-process engine produces, so
// /healthz and the auto-recovery machinery work unchanged on a
// coordinator.
func (c *Coordinator) Health() shard.HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Node-level events, plus the members' own shard-level events.
	rep := shard.HealthReport{Quarantines: c.quarantines, Recoveries: c.recoveries}
	down := 0
	for _, m := range c.members {
		for _, sh := range c.shardView(m) {
			if sh.Quarantined {
				down++
			}
			rep.Shards = append(rep.Shards, sh)
		}
		if !m.fenced {
			rep.Quarantines += m.health.Quarantines
			rep.Recoveries += m.health.Recoveries
		}
	}
	rep.Status = shard.Rollup(down, c.shards)
	return rep
}

// shardView is member m's slice as the member view holds it (c.mu
// held): every shard quarantined, with the fence's cause, while m is
// fenced; otherwise the per-shard detail m last reported. Members tile
// [0, S) in order, so concatenating their views gives the global list.
func (c *Coordinator) shardView(m *member) []shard.ShardHealth {
	out := make([]shard.ShardHealth, m.spec.Count)
	for i := range out {
		g := m.spec.First + i
		out[i] = shard.ShardHealth{Shard: g, Rows: shard.Rows(c.numRows, c.shards, g), Quarantined: m.fenced, Cause: m.lastErr}
	}
	for _, sh := range m.health.Shards {
		if i := sh.Shard - m.spec.First; !m.fenced && i >= 0 && i < len(out) {
			out[i].Quarantined, out[i].Cause = sh.Quarantined, sh.Cause
		}
	}
	return out
}

// viewStale reports whether node n's finish reply, quarantined shards
// of its slice, disagrees with the member view.
func (c *Coordinator) viewStale(n, quarantined int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.members[n].health.Shards {
		if sh.Quarantined {
			quarantined--
		}
	}
	return quarantined != 0
}

// probe re-reads node n's /healthz into the member view and reports
// whether it failed at the transport level, which fences the node. A
// member answering 503 (all its shards quarantined) is reachable.
func (c *Coordinator) probe(n int) bool {
	m := c.members[n]
	hz, err := m.cli.Healthz(context.Background())
	if err != nil {
		c.fence(n, err)
		return true
	}
	c.mu.Lock()
	m.health = hz
	c.mu.Unlock()
	return false
}

// probeAll probes every live member. The return value is the number of
// probes that failed this pass (nodes already fenced are skipped, not
// counted), which the background loop uses to back off.
func (c *Coordinator) probeAll() int {
	var failed atomic.Int64
	c.forEachMember(func(n int) {
		if !c.isFenced(n) && c.probe(n) {
			failed.Add(1)
		}
	})
	return int(failed.Load())
}

// restored records that node n's shards were replayed from a checkpoint:
// a fenced node returns to service, and the view clears the quarantine
// it held for them.
func (c *Coordinator) restored(n int, shards []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[n]
	if m.fenced {
		m.fenced, m.lastErr = false, ""
		c.recoveries++
	}
	for i, sh := range m.health.Shards {
		if slices.Contains(shards, sh.Shard) {
			m.health.Shards[i].Quarantined, m.health.Shards[i].Cause = false, ""
		}
	}
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

// StopProbes stops the background probe loop (idempotent) and waits
// for the checkpoint save in flight, if any.
func (c *Coordinator) StopProbes() {
	defer c.WaitSaved()
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
// members start their ORAM reads while the trainer is still training. Staging is best-effort at the node level — a member
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

// AbortRound force-closes the coordinator's round bookkeeping (what the
// admin-restore path and the epoch fence call). Members'
// orphaned rounds are cleaned up when sections are replayed onto them —
// the admin restore endpoints abort server-side first.
func (c *Coordinator) AbortRound() { c.endRound() }
