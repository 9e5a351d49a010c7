// Package shard implements the sharded ORAM engine: the embedding table
// is partitioned into S contiguous shards, each backed by its own full
// ORAM pipeline (main ORAM, position map, stash, buffer ORAM, TEE engine
// and device accounting), and the S pipelines execute one FL round's
// steps ①–③ and ⑦ concurrently on a bounded worker pool.
//
// Paper mapping: Sec 4.2 already splits each round's requests into 16K
// chunks and composes ε in parallel across them; the shards here are the
// same construction applied to *disjoint row ranges* instead of arrival
// order, which lets the independent per-shard ORAMs run concurrently.
// Within a shard the ε-FDP mechanism bounds what the shard's access
// count k reveals about its k_union; across shards the protected values
// are disjoint feature values, so by parallel composition the round
// satisfies the same per-value ε the monolithic pipeline gives (the
// round ε is the maximum, not the sum, of the per-shard chunk εs — see
// fdp.Accountant).
//
// The engine is deliberately generic: it routes rows, fans rounds out,
// and merges statistics, while the actual pipelines are supplied as
// Partition values (the fedora package supplies one pipeline per shard).
// This keeps the package free of a dependency on the controller that
// embeds it.
//
// Key invariants:
//
//   - Routing is a pure function of (NumRows, Shards, row): contiguous
//     balanced ranges, every shard non-empty when Shards ≤ NumRows.
//   - Each shard's randomness comes from its own stream, seeded by
//     Seed(base, shard). Results are therefore bit-identical at ANY
//     worker count — scheduling cannot change which RNG serves which
//     shard (the same invariant the fl worker pool established in PR 1).
//   - Dummy (padding) requests route by (client, position), not by row,
//     so the per-shard public K is independent of where a client's REAL
//     rows live only up to the real-row histogram; docs/ARCHITECTURE.md
//     discusses the resulting leakage trade-off.
//   - At most one round is in flight per engine.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/persist"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the partition count S (≥ 1).
	Shards int
	// NumRows is the global embedding-table height being partitioned.
	NumRows uint64
	// Workers bounds the worker pool that executes shards concurrently
	// (0 = min(GOMAXPROCS, Shards); 1 = fully sequential).
	Workers int
	// Dummy is the sentinel request ID used as hide-count padding; it is
	// routed round-robin by (client, position) instead of by row so the
	// padding spreads deterministically across shards.
	Dummy uint64
	// Trigger classifies a shard error as quarantine-worthy (the shard is
	// isolated and the round degrades) versus fatal (the round fails as
	// before). Nil means DefaultTrigger: injected device faults and TEE
	// auth failures quarantine, everything else is fatal.
	Trigger func(error) bool
	// Base is the GLOBAL index of this engine's first shard. A standalone
	// engine leaves it 0; a cluster member hosting a contiguous slice
	// [Base, Base+Shards) of a larger decomposition sets it so checkpoint
	// sections and health reports are named by global shard index —
	// making per-shard sections portable between a single-process engine
	// and any member that owns the shard.
	Base int
}

// Partition is one shard's pipeline, as supplied by the embedding layer.
// BeginRound receives per-client request lists already translated to the
// partition's LOCAL row space.
type Partition interface {
	BeginRound(requests [][]uint64) (PartitionRound, error)
	// SnapshotTo appends the partition's state to an encoder its owner is
	// building (SnapshotSize bounds how many bytes); Restore takes those
	// bytes back.
	SnapshotSize() int
	SnapshotTo(e *persist.Encoder) error
	Restore(b []byte) error
	// Abort force-closes any open or half-open round state so that a
	// subsequent Restore (or BeginRound) finds the partition quiesced. It
	// must be idempotent and must not touch the stored table data.
	Abort()
}

// PartitionRound is one shard's in-flight round. Implementations must be
// safe for concurrent use (the fedora pipeline's round is).
type PartitionRound interface {
	ServeEntry(row uint64) (entry []float32, ok bool, err error)
	SubmitGradient(row uint64, grad []float32, nSamples int) (delivered bool, err error)
	SubmitAggregate(row uint64, sum []float32, count float32) (delivered bool, err error)
	Finish() (RoundStats, error)
}

// ErrRoundInProgress is returned by BeginRound when the previous round
// was not finished.
var ErrRoundInProgress = errors.New("shard: previous round not finished")

// ErrRoundFinished is returned by round operations after Finish.
var ErrRoundFinished = errors.New("shard: round already finished")

// Engine routes rows to shards and drives the per-shard pipelines.
type Engine struct {
	cfg   Config
	parts []Partition

	mu          sync.Mutex
	inRound     bool
	quarantined []bool  // per-shard quarantine flags
	causes      []error // first quarantine-triggering error per shard
	quarantines uint64  // cumulative quarantine events
	recoveries  uint64  // cumulative shard recoveries
}

// NewEngine builds an engine over the given partitions. len(parts) must
// equal cfg.Shards, and every shard must own at least one row.
func NewEngine(cfg Config, parts []Partition) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, errors.New("shard: Shards must be at least 1")
	}
	if cfg.NumRows == 0 {
		return nil, errors.New("shard: NumRows must be positive")
	}
	if uint64(cfg.Shards) > cfg.NumRows {
		return nil, fmt.Errorf("shard: %d shards exceed %d rows (every shard must own at least one row)",
			cfg.Shards, cfg.NumRows)
	}
	if len(parts) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d partitions supplied for %d shards", len(parts), cfg.Shards)
	}
	if cfg.Base < 0 {
		return nil, fmt.Errorf("shard: Base %d must be non-negative", cfg.Base)
	}
	return &Engine{
		cfg: cfg, parts: parts,
		quarantined: make([]bool, cfg.Shards),
		causes:      make([]error, cfg.Shards),
	}, nil
}

// Shards reports the partition count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Workers resolves the effective worker-pool size.
func (e *Engine) Workers() int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > e.cfg.Shards {
		w = e.cfg.Shards
	}
	return w
}

// --- Routing ----------------------------------------------------------
//
// The table is split into contiguous balanced ranges: with N rows and S
// shards, the first N%S shards own ⌈N/S⌉ rows and the rest own ⌊N/S⌋,
// so every shard is non-empty whenever S ≤ N.

// Rows returns the number of rows shard i owns under an (N, S) split.
func Rows(numRows uint64, shards, i int) uint64 {
	q := numRows / uint64(shards)
	r := numRows % uint64(shards)
	if uint64(i) < r {
		return q + 1
	}
	return q
}

// Base returns the first global row of shard i under an (N, S) split.
func Base(numRows uint64, shards, i int) uint64 {
	q := numRows / uint64(shards)
	r := numRows % uint64(shards)
	ui := uint64(i)
	if ui < r {
		return ui * (q + 1)
	}
	return r*(q+1) + (ui-r)*q
}

// ShardOf returns the shard owning a global row under an (N, S) split.
func ShardOf(numRows uint64, shards int, row uint64) int {
	q := numRows / uint64(shards)
	r := numRows % uint64(shards)
	big := r * (q + 1) // rows held by the ⌈N/S⌉-sized shards
	if row < big {
		return int(row / (q + 1))
	}
	return int(r + (row-big)/q)
}

// Seed derives shard i's deterministic RNG seed from the run's base
// seed (splitmix64 over base + i·φ so neighbouring shards decorrelate).
func Seed(base int64, shard int) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*uint64(shard+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// ShardOf returns the shard owning a global row.
func (e *Engine) ShardOf(row uint64) int {
	return ShardOf(e.cfg.NumRows, e.cfg.Shards, row)
}

// locate translates a global row to (shard, local row).
func (e *Engine) locate(row uint64) (int, uint64) {
	s := e.ShardOf(row)
	return s, row - Base(e.cfg.NumRows, e.cfg.Shards, s)
}

// route splits per-client request lists into per-shard per-client lists
// of LOCAL rows. Dummy padding requests route by (client, position).
func (e *Engine) route(requests [][]uint64) ([][][]uint64, error) {
	S := e.cfg.Shards
	perShard := make([][][]uint64, S)
	for s := 0; s < S; s++ {
		perShard[s] = make([][]uint64, len(requests))
	}
	for ci, reqs := range requests {
		for j, row := range reqs {
			var s int
			var local uint64
			if row == e.cfg.Dummy {
				s, local = (ci+j)%S, e.cfg.Dummy
			} else {
				if row >= e.cfg.NumRows {
					return nil, fmt.Errorf("shard: client %d requests row %d out of range %d",
						ci, row, e.cfg.NumRows)
				}
				s, local = e.locate(row)
			}
			perShard[s][ci] = append(perShard[s][ci], local)
		}
	}
	return perShard, nil
}

// forEach runs fn(i) for every shard index over the bounded worker pool
// and blocks until all complete.
func (e *Engine) forEach(fn func(i int)) {
	workers := e.Workers()
	if workers == 1 {
		for i := 0; i < e.cfg.Shards; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < e.cfg.Shards; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// firstError returns the lowest-shard-index error, for deterministic
// error reporting regardless of scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// endRound clears the in-flight flag.
func (e *Engine) endRound() {
	e.mu.Lock()
	e.inRound = false
	e.mu.Unlock()
}

// Abort force-quiesces the engine: any in-flight round is abandoned and
// every partition's half-open round state is discarded. It exists for
// the orphaned-round case a coordinator fence creates — the member's
// round will never see Finish, so Snapshot/Restore would report
// ErrRoundOpen forever without a forced close. Stored table data is not
// touched. Callers must ensure no round operations are still in flight.
func (e *Engine) Abort() {
	e.mu.Lock()
	e.inRound = false
	e.mu.Unlock()
	for _, p := range e.parts {
		p.Abort()
	}
}

// Round is an in-flight sharded round: one PartitionRound per shard plus
// the wall-clock bookkeeping needed to attribute phase time. ServeEntry
// and SubmitGradient are safe for concurrent use and, unlike the
// monolithic pipeline, proceed in parallel when the rows live on
// different shards (each shard serializes only its own pipeline).
type Round struct {
	e         *Engine
	subs      []PartitionRound
	beginWall time.Duration   // wall clock of the parallel ①–③ section
	shardWall []time.Duration // per-shard BeginRound wall clock

	mu   sync.RWMutex
	done bool
}

// BeginRound routes the requests and runs every shard's steps ①–③
// concurrently. Quarantined shards are skipped; a shard that fails with
// a quarantine-trigger error (see Config.Trigger) is quarantined and the
// round proceeds degraded over the survivors, as long as at least one
// shard is live. On a fatal (non-trigger) failure the shards that did
// begin are closed (best effort) and the lowest-indexed error is
// returned.
func (e *Engine) BeginRound(requests [][]uint64) (*Round, error) {
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return nil, ErrRoundInProgress
	}
	e.inRound = true
	quar := append([]bool(nil), e.quarantined...)
	e.mu.Unlock()

	perShard, err := e.route(requests)
	if err != nil {
		e.endRound()
		return nil, err
	}
	S := e.cfg.Shards
	r := &Round{
		e:         e,
		subs:      make([]PartitionRound, S),
		shardWall: make([]time.Duration, S),
	}
	errs := make([]error, S)
	wallStart := time.Now()
	e.forEach(func(i int) {
		if quar[i] {
			return
		}
		start := time.Now()
		sub, err := e.parts[i].BeginRound(perShard[i])
		r.shardWall[i] = time.Since(start)
		if err != nil {
			errs[i] = err
			return
		}
		r.subs[i] = sub
	})
	r.beginWall = time.Since(wallStart)
	live := 0
	for i := range errs {
		switch {
		case errs[i] == nil:
			if r.subs[i] != nil {
				live++
			}
		case e.trigger(errs[i]):
			// Degrade: isolate the shard, keep the round alive. Its
			// half-open state is cleaned up by Finish/Recover via Abort.
			e.quarantine(i, errs[i])
			errs[i] = nil
		}
	}
	if err := firstError(errs); err != nil {
		e.forEach(func(i int) {
			if r.subs[i] != nil {
				_, _ = r.subs[i].Finish()
			}
		})
		e.endRound()
		return nil, err
	}
	if live == 0 {
		e.endRound()
		return nil, fmt.Errorf("shard: no live shards to begin a round: %w", ErrShardUnavailable)
	}
	return r, nil
}

// onShard runs one round operation against the shard that owns row,
// handing op the shard's round and the row's LOCAL index. Rows owned by a
// quarantined (or never-begun) shard return ErrShardUnavailable (wrapped
// with the quarantine cause) so the trainer can skip or resample them; a
// quarantine-trigger error from op quarantines the shard mid-round and is
// reported the same way. Any other error is op's own.
func (r *Round) onShard(row uint64, op func(sub PartitionRound, local uint64) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.done {
		return ErrRoundFinished
	}
	if row >= r.e.cfg.NumRows {
		return fmt.Errorf("shard: row %d out of range %d", row, r.e.cfg.NumRows)
	}
	s, local := r.e.locate(row)
	sub := r.subs[s]
	if sub == nil || r.e.isQuarantined(s) {
		return r.e.unavailable(s)
	}
	err := op(sub, local)
	if err != nil {
		if r.e.trigger(err) {
			r.e.quarantine(s, err)
		}
		if r.e.isQuarantined(s) {
			return r.e.unavailable(s)
		}
	}
	return err
}

// ServeEntry serves a client download (step ④), routed to the owning
// shard. ok is false for rows the shard's ε-FDP mechanism sacrificed.
func (r *Round) ServeEntry(row uint64) (entry []float32, ok bool, err error) {
	err = r.onShard(row, func(sub PartitionRound, local uint64) (err error) {
		entry, ok, err = sub.ServeEntry(local)
		return err
	})
	return entry, ok, err
}

// SubmitGradient folds a client gradient into the owning shard's
// aggregate (step ⑥).
func (r *Round) SubmitGradient(row uint64, grad []float32, nSamples int) (delivered bool, err error) {
	err = r.onShard(row, func(sub PartitionRound, local uint64) (err error) {
		delivered, err = sub.SubmitGradient(local, grad, nSamples)
		return err
	})
	return delivered, err
}

// SubmitAggregate folds an already-aggregated multi-client sum (the
// upload plane's unmasked per-row output: Σ n_c·Δθ and Σ n_c) into the
// owning shard, bypassing the aggregator's per-client pre-weighting.
func (r *Round) SubmitAggregate(row uint64, sum []float32, count float32) (delivered bool, err error) {
	err = r.onShard(row, func(sub PartitionRound, local uint64) (err error) {
		delivered, err = sub.SubmitAggregate(local, sum, count)
		return err
	})
	return delivered, err
}

// Finish runs every live shard's write-back (step ⑦) concurrently,
// merges the per-shard statistics (sums for counts and modelled device
// time, parallel-section wall clock for the wall-time phases, parallel ε
// composition for the round guarantee) and closes the round. Quarantined
// shards are skipped and their half-open rounds aborted — this round's
// updates to those shards are lost, which is the documented blast radius
// of a quarantine (recovery restores the shard from the newest
// checkpoint). A quarantine-trigger error during a shard's write-back
// quarantines it the same way; the round still succeeds over the
// survivors.
func (r *Round) Finish() (RoundStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return RoundStats{}, ErrRoundFinished
	}
	S := r.e.cfg.Shards
	stats := make([]RoundStats, S)
	finishShard := make([]time.Duration, S)
	errs := make([]error, S)
	survived := make([]bool, S)
	wallStart := time.Now()
	r.e.forEach(func(i int) {
		if r.subs[i] == nil || r.e.isQuarantined(i) {
			return
		}
		start := time.Now()
		st, err := r.subs[i].Finish()
		finishShard[i] = time.Since(start)
		if err != nil {
			if r.e.trigger(err) {
				r.e.quarantine(i, err)
				return
			}
			errs[i] = err
			return
		}
		stats[i], survived[i] = st, true
	})
	finishWall := time.Since(wallStart)
	r.done = true
	r.e.endRound()
	// Abort the half-open rounds of every quarantined shard so a later
	// Recover (or snapshot of the survivors) finds them quiesced.
	quar := r.e.quarantineSnapshot()
	for i, q := range quar {
		if q {
			r.e.parts[i].Abort()
		}
	}
	if err := firstError(errs); err != nil {
		return RoundStats{}, err
	}
	live := 0
	for _, ok := range survived {
		if ok {
			live++
		}
	}
	if live == 0 {
		return RoundStats{}, fmt.Errorf("shard: round lost on every shard: %w", ErrShardUnavailable)
	}
	m := r.e.merge(stats, r.beginWall, finishWall, r.shardWall, finishShard)
	for i, q := range quar {
		if q {
			m.PerShard[i].Quarantined = true
			m.QuarantinedShards++
		}
	}
	return m, nil
}
