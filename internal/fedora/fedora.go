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
// The code is two types. A pipeline is one shard's ORAMs, devices,
// mechanism and RNG streams, and runs the round as ONE schedule:
//
//	plan → fetch pass → (gate) → serve/aggregate → unload → evict pass
//
// where the gate is the end of the fetch pass: every serve, gradient and
// aggregate waits for it, so all k rows are in the buffer ORAM before any
// download is served (Sec 4.3). Config.Prefetch decides only which
// goroutine runs the fetch and evict passes — the caller's, inside
// BeginRound and Finish, or the round's own, overlapping the caller's
// compute — never what the ORAMs execute or in which order. The
// Controller drives one pipeline per shard through a shard.Engine — an
// engine of one part when Config.Shards ≤ 1, so every shard count takes
// the same round path — and owns the round lifecycle: the open-round
// flag, the round counter, the staged next round and the snapshot
// envelope.
//
// Key invariants: at most one round is in flight per controller
// (BeginRound returns ErrRoundInProgress otherwise); the adversary
// observes exactly k main-ORAM accesses in each direction per chunk —
// dummy fetches and dummy write-backs pad both sides; and each pipeline
// is single-writer — its mutex serializes all round entry points, so
// many client goroutines may serve downloads and stage uploads
// concurrently (as the parallel FL trainer does) without the ORAMs ever
// seeing concurrent mutation.
package fedora

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bufferoram"
	"repro/internal/device"
	"repro/internal/fdp"
	"repro/internal/shard"
	"repro/internal/storage"
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
	// hands the round's fetch pass (the main-ORAM reads and buffer loads)
	// to a goroutine of its own — serves, gradients and aggregates wait
	// until that pass has finished — and Finish leaves the main-ORAM
	// write-backs to the next round's fetch pass, so both overlap with
	// the caller's compute phase. StageRound lets two-phase callers start
	// the next round's plan + fetch before BeginRound is even called.
	// Both ORAMs execute the identical op sequence either way, so state
	// bytes and results are bit-identical with Prefetch on or off, and
	// the flag is excluded from Config.Digest — checkpoints move freely
	// between modes (any deferred pass is applied at Snapshot time). Not
	// supported for BackendPathORAMPlus, whose per-access RNG draws
	// happen at fetch time rather than plan time.
	Prefetch bool
	// Shards partitions the embedding table into this many contiguous row
	// ranges, each with its own main ORAM, buffer ORAM, position map and
	// ε-FDP sampler, executed concurrently each round (0 or 1 =
	// one shard). The round ε is unchanged: chunks already compose in
	// parallel, and per-shard chunks partition the same request set.
	Shards int
	// ShardWorkers bounds the goroutines driving shards concurrently —
	// round begin, every batch call and finish (0 = one per usable CPU,
	// capped at Shards; 1 = fully sequential). The worker count never
	// changes results: each shard's RNG stream is derived from Seed and
	// the shard index alone.
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
	// Config.Digest — both backends store bit-identical contents and
	// share one snapshot format, so checkpoints move freely between a
	// simulated and a file-backed run of the same config.
	Storage storage.Spec
	// WrapDevice, when non-nil, interposes on every device the controller
	// provisions before the ORAMs are built over it — the fault-injection
	// seam (internal/fault's Plan.Wrap has this signature). Names are
	// "ssd"/"dram" at one shard and "shard<i>/ssd"/"shard<i>/dram" sharded.
	// Snapshot/Restore and PeekRow bypass the wrapper (they address the
	// underlying simulated device directly), so recovery and evaluation
	// see true stored bytes. Functions are not encodable, so WrapDevice is
	// naturally excluded from Config.Digest: a faulted run restores
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

// Controller is the trusted FEDORA controller plus its devices: one
// shard.Engine over one pipeline per shard — a single pipeline when
// Config.Shards ≤ 1, which is the engine's degenerate case, not a second
// code path. The pipelines own every ORAM, device and buffer; the engine
// routes rounds, batches, snapshots and restores across them; the
// controller owns what is one-per-round whatever the shard count — the
// open-round flag, the round counter, the staged next round and the
// snapshot envelope.
//
// A Controller is safe for concurrent use: mu guards the round lifecycle
// here, and each pipeline serializes its own ORAMs (see pipeline).
type Controller struct {
	cfg   Config
	parts []*pipeline
	eng   *shard.Engine

	mu      sync.Mutex // guards the round lifecycle below
	round   uint64
	inRound bool
	// staged is the posted-but-not-adopted next round of the two-phase
	// contract (see prefetch.go).
	staged *stagedRound
}

// New builds a controller: max(Shards, 1) pipelines, each complete (own
// main ORAM, buffer ORAM, position map, devices, TEE engine and ε-FDP
// sampler) over one contiguous row range, and the engine driving them.
// A lone pipeline is built from cfg as is; several get shardConfig's
// per-shard seeds, storage prefixes and device names.
func New(cfg Config) (*Controller, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	S := max(cfg.Shards, 1)
	c := &Controller{cfg: cfg, parts: make([]*pipeline, S)}
	parts := make([]shard.Partition, S)
	for i := range c.parts {
		pcfg := cfg
		if S > 1 {
			pcfg = shardConfig(cfg, S, i)
		}
		p, err := newPipeline(pcfg)
		if err != nil {
			if S > 1 {
				err = fmt.Errorf("fedora: shard %d: %w", cfg.ShardBase+i, err)
			}
			return nil, err
		}
		c.parts[i], parts[i] = p, p
	}
	ecfg := shard.Config{
		Shards:  S,
		NumRows: cfg.NumRows,
		Workers: cfg.ShardWorkers,
		Dummy:   DummyRequest,
		Base:    cfg.ShardBase,
	}
	if S == 1 {
		// A lone shard has no survivors to degrade to: a device fault
		// fails the round loudly instead of quarantining it.
		ecfg.Trigger = func(error) bool { return false }
	}
	eng, err := shard.NewEngine(ecfg, parts)
	if err != nil {
		return nil, err
	}
	c.eng = eng
	return c, nil
}

// Health reports the controller's shard-health rollup. A one-shard
// controller never quarantines, so it always reports healthy with zero
// event counters.
func (c *Controller) Health() shard.HealthReport { return c.eng.Health() }

// AbortRound force-closes any open round WITHOUT running write-back,
// leaving the pipelines quiesced but the in-memory ORAM state dirty; the
// caller is expected to Restore a trusted snapshot before serving again
// (the shard engine's quarantine/recover path does exactly that). It is
// idempotent and safe with no round open, and it is what clears the
// orphaned round a coordinator fence leaves behind, which would otherwise
// block Snapshot/Restore forever.
func (c *Controller) AbortRound() {
	// Settle any staged begin first: until its handshake completes, the
	// background goroutine owns the round state. The wait is short — the
	// begin goroutine only plans; the heavy I/O runs on the fetch pass.
	c.mu.Lock()
	s := c.staged
	c.staged = nil
	c.mu.Unlock()
	if s != nil && s.started {
		<-s.done
	}
	c.mu.Lock()
	c.inRound = false
	c.mu.Unlock()
	c.eng.Abort()
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

// EffectiveEpsilon is the per-value ε after group privacy. All shards
// share the same (ε, group-privacy) configuration, and their protected
// values are disjoint rows, so the round composes in parallel: the
// effective per-value ε is any pipeline's.
func (c *Controller) EffectiveEpsilon() float64 { return c.parts[0].effEps }

// MainORAMBytes is the main ORAM's device footprint (= the SSD size used
// for lifetime reporting), summed across shards.
func (c *Controller) MainORAMBytes() uint64 {
	var total uint64
	for _, p := range c.parts {
		total += p.mainORAMBytes()
	}
	return total
}

// DRAMResidentBytes is the capacity the design must provision in DRAM:
// buffer ORAM + position map + VTree (FEDORA backends) + stash headroom.
// Summed across shards.
func (c *Controller) DRAMResidentBytes() uint64 {
	var total uint64
	for _, p := range c.parts {
		total += p.dramResidentBytes()
	}
	return total
}

// SSDDevice / DRAMDevice expose the underlying devices for stats
// capture. There is one device pair per shard; these return shard 0's —
// use SSDStats / DRAMStats for the aggregate counters. The main device
// is a device.Storage: simulator- or file-backed depending on
// Config.Storage.
func (c *Controller) SSDDevice() device.Storage { return c.parts[0].ssd }

func (c *Controller) DRAMDevice() *device.Sim { return c.parts[0].dram }

// SSDStats / DRAMStats aggregate the device counters across all shards.
func (c *Controller) SSDStats() device.Stats {
	var total device.Stats
	for _, p := range c.parts {
		total.Add(p.ssd.Stats())
	}
	return total
}

func (c *Controller) DRAMStats() device.Stats {
	var total device.Stats
	for _, p := range c.parts {
		total.Add(p.dram.Stats())
	}
	return total
}

// Close releases the controller's devices — with the file backend, the
// per-shard backing files — after applying any deferred write-back pass.
// The controller must be quiesced; using it after Close fails on the
// first device access. Safe to call on a simulator-backed controller (the
// simulator's Close is a no-op) and idempotent either way.
func (c *Controller) Close() error {
	var firstErr error
	for _, p := range c.parts {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// StorageReports returns the real-I/O telemetry of every file-backed
// device the controller provisioned (per-op latency percentiles, fsync
// counts, O_DIRECT state), one entry per shard. Empty on a fully
// simulated controller — the simulator has modelled time, not measured
// latencies.
func (c *Controller) StorageReports() []storage.Report {
	var out []storage.Report
	for _, p := range c.parts {
		if f, ok := p.ssd.(*storage.File); ok {
			out = append(out, f.Report())
		}
	}
	return out
}

// SyncStorage flushes every file-backed device to disk (a durability
// barrier for checkpoint boundaries); a no-op on simulated devices.
func (c *Controller) SyncStorage() error {
	for _, p := range c.parts {
		if f, ok := p.ssd.(*storage.File); ok {
			if err := f.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Shards reports the shard count (at least 1).
func (c *Controller) Shards() int { return len(c.parts) }

// Round returns the number of completed rounds.
func (c *Controller) Round() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

// MainEvictPeriod reports the main ORAM's eviction period A (0 for the
// Path ORAM+ backend, which has no eviction period). It is shard 0's
// period: all shards share the derivation rule.
func (c *Controller) MainEvictPeriod() int {
	if raw := c.parts[0].raw; raw != nil {
		return raw.EvictPeriod()
	}
	return 0
}

// PeekRow returns the current value of an embedding row without any ORAM
// traffic or state change. It exists so evaluation code can score the
// global model; a deployment has no such backdoor.
func (c *Controller) PeekRow(row uint64) ([]float32, error) {
	if row >= c.cfg.NumRows {
		return nil, fmt.Errorf("fedora: peek row %d out of range %d", row, c.cfg.NumRows)
	}
	si := shard.ShardOf(c.cfg.NumRows, len(c.parts), row)
	return c.parts[si].PeekRow(row - shard.Base(c.cfg.NumRows, len(c.parts), si))
}
