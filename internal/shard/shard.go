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
// satisfies the same per-value ε a single pipeline over the whole table
// gives (the round ε is the maximum, not the sum, of the per-shard chunk
// εs — see fdp.Accountant).
//
// The engine is deliberately generic: it routes rows, fans rounds out,
// and merges statistics, while the actual pipelines are supplied as
// Partition values (the fedora package supplies one pipeline per shard).
// This keeps the package free of a dependency on the controller that
// embeds it. One shard is the degenerate case, not a separate path: the
// fedora controller runs through an engine of one part whenever it is
// not sharded, where the worker pool runs inline, the request lists and
// single-shard batches pass through ungrouped, and its owner's trigger
// never quarantines.
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
	"slices"
	"sync"

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
// partition's LOCAL row space; the lone partition of a one-shard engine
// gets the caller's lists unchecked, and range-checks them itself.
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
//
// The batch methods work on the rows of the caller's batch that idx lists
// (every row when idx is nil), in that order: a row's LOCAL index is its
// batch row minus base, and its outcome goes to the same index of out, so
// a shard's share of a batch moves no row, gradient or result. n counts
// the listed rows that completed; when err is non-nil the row listed at
// position n failed and every row listed before it completed.
type PartitionRound interface {
	// ServeEntries serves downloads (step ④); OK is false for rows the
	// shard's ε-FDP mechanism sacrificed.
	ServeEntries(rows []uint64, idx []int, base uint64, out []EntryResult) (n int, err error)
	// SubmitGradients folds client gradients into the shard's aggregate
	// (step ⑥); out[i] is false when the row was not resident.
	SubmitGradients(grads []RowGradient, idx []int, base uint64, out []bool) (n int, err error)
	// SubmitAggregates folds already-aggregated multi-client sums (the
	// upload plane's unmasked per-row output: Σ n_c·Δθ and Σ n_c),
	// bypassing the aggregator's per-client pre-weighting.
	SubmitAggregates(aggs []RowAggregate, idx []int, base uint64, out []bool) (n int, err error)
	Finish() (RoundStats, error)
}

// At returns the batch index idx lists at position p: p itself when idx
// is nil (the whole batch, in order).
func At(idx []int, p int) int {
	if idx == nil {
		return p
	}
	return idx[p]
}

// EntryResult is one row's outcome in a batched download: OK is false
// for rows the ε-FDP mechanism sacrificed this round (the caller applies
// its lost-entry policy). Unavailable marks rows owned by a quarantined
// shard (always with OK false): the row could not be served this round
// at all, and the trainer should skip or resample it rather than treat
// the silence as a model value.
type EntryResult struct {
	Row         uint64
	Entry       []float32
	OK          bool
	Unavailable bool
}

// RowGradient is one row's contribution to a batched gradient upload.
type RowGradient struct {
	Row     uint64
	Grad    []float32
	Samples int
}

// RowAggregate is one row's combined contribution in a batched
// aggregate upload: the unmasked per-row output of the wire plane.
type RowAggregate struct {
	Row   uint64
	Sum   []float32
	Count float32
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
// of LOCAL rows. Dummy padding requests route by (client, position). A
// one-shard engine passes the lists through as they are — its local rows
// are the global ones and all padding is its own — leaving the range
// check to its partition.
func (e *Engine) route(requests [][]uint64) ([][][]uint64, error) {
	S := e.cfg.Shards
	if S == 1 {
		return [][][]uint64{requests}, nil
	}
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

// forEach runs fn(i) for every shard index, each on its own goroutine
// with at most Workers() running at once, and blocks until all complete.
func (e *Engine) forEach(fn func(i int)) {
	workers := e.Workers()
	if workers == 1 {
		for i := 0; i < e.cfg.Shards; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < e.cfg.Shards; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
			<-sem
		}()
	}
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

// Round is an in-flight sharded round: one PartitionRound per shard. It
// is itself a PartitionRound over the whole table. Its batch methods are
// safe for concurrent use; each splits its batch by owning shard and runs
// the shards' groups on the engine's worker pool (each shard serializes
// only its own pipeline).
type Round struct {
	e    *Engine
	subs []PartitionRound

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
	r := &Round{e: e, subs: make([]PartitionRound, S)}
	errs := make([]error, S)
	e.forEach(func(i int) {
		if quar[i] {
			return
		}
		sub, err := e.parts[i].BeginRound(perShard[i])
		if err != nil {
			errs[i] = err
			return
		}
		r.subs[i] = sub
	})
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

// ServeEntries implements PartitionRound. Rows of a quarantined (or
// never-begun) shard come back Unavailable.
func (r *Round) ServeEntries(rows []uint64, idx []int, base uint64, out []EntryResult) (int, error) {
	return r.split(len(rows), idx, base, func(i int) uint64 { return rows[i] },
		func(sub PartitionRound, idx []int, base uint64) (int, error) {
			return sub.ServeEntries(rows, idx, base, out)
		},
		func(i int) { out[i] = EntryResult{Row: rows[i], Unavailable: true} })
}

// SubmitGradients implements PartitionRound. Gradients for rows of a
// quarantined (or never-begun) shard are not delivered.
func (r *Round) SubmitGradients(grads []RowGradient, idx []int, base uint64, out []bool) (int, error) {
	return r.split(len(grads), idx, base, func(i int) uint64 { return grads[i].Row },
		func(sub PartitionRound, idx []int, base uint64) (int, error) {
			return sub.SubmitGradients(grads, idx, base, out)
		},
		func(i int) { out[i] = false })
}

// SubmitAggregates implements PartitionRound, with SubmitGradients'
// delivery rules.
func (r *Round) SubmitAggregates(aggs []RowAggregate, idx []int, base uint64, out []bool) (int, error) {
	return r.split(len(aggs), idx, base, func(i int) uint64 { return aggs[i].Row },
		func(sub PartitionRound, idx []int, base uint64) (int, error) {
			return sub.SubmitAggregates(aggs, idx, base, out)
		},
		func(i int) { out[i] = false })
}

// split runs one batch operation: it groups the listed batch indices by
// owning shard (rowOf(i) - base is the row's engine-wide index), keeping
// request order within each group, so a shard's ORAMs see its rows in
// batch order whatever the scheduler does, and runs each shard's group as
// one partition call on the worker pool. A batch whose rows all land on
// one shard skips the grouping: that shard gets the caller's listing as
// is. Any error other than a quarantine trigger (see runGroup), like an
// out-of-range row, fails the batch at its position; of several, the
// lowest position's is returned.
func (r *Round) split(n int, idx []int, base uint64, rowOf func(i int) uint64,
	call func(sub PartitionRound, idx []int, base uint64) (int, error), unavailable func(i int)) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.done {
		return 0, ErrRoundFinished
	}
	if idx != nil {
		n = len(idx)
	}
	e := r.e
	if s, ok := e.soleShard(n, idx, base, rowOf); ok {
		return r.runGroup(s, idx, n, base, call, unavailable)
	}
	N, S := e.cfg.NumRows, e.cfg.Shards
	failed, err := n, error(nil) // the failing position and its error
	groups := make([][]int, S)   // the batch indices each shard owns
	for p := 0; p < n; p++ {
		i := At(idx, p)
		if row := rowOf(i) - base; row < N {
			s := ShardOf(N, S, row)
			groups[s] = append(groups[s], i)
		} else if err == nil {
			failed, err = p, fmt.Errorf("shard: row %d out of range %d", row, N)
		}
	}
	failedAt := make([]int, S) // per shard: the failing batch index
	errs := make([]error, S)
	e.forEach(func(s int) {
		if g := groups[s]; len(g) > 0 {
			var k int
			if k, errs[s] = r.runGroup(s, g, len(g), base, call, unavailable); errs[s] != nil {
				failedAt[s] = g[k]
			}
		}
	})
	for s, gerr := range errs {
		if gerr == nil {
			continue
		}
		p := failedAt[s]
		if idx != nil {
			p = slices.Index(idx, p)
		}
		if p < failed {
			failed, err = p, gerr
		}
	}
	return failed, err
}

// soleShard reports the shard that owns every listed row, if there is
// one: no row is out of range and no two land on different shards.
func (e *Engine) soleShard(n int, idx []int, base uint64, rowOf func(i int) uint64) (int, bool) {
	N, S := e.cfg.NumRows, e.cfg.Shards
	s := 0
	for p := 0; p < n; p++ {
		row := rowOf(At(idx, p)) - base
		if row >= N {
			return 0, false
		}
		if t := ShardOf(N, S, row); p == 0 {
			s = t
		} else if t != s {
			return 0, false
		}
	}
	return s, n > 0
}

// runGroup runs shard s's share of a batch, the n batch indices g lists
// (all n, in order, when g is nil), as one partition call. Every row of a
// quarantined (or never-begun) shard is unavailable. A quarantine-trigger
// error quarantines the shard, and the failing row and the rest of the
// group are unavailable while the rows it completed keep their results.
// Any other error is returned with the position in g that failed;
// otherwise the result is n.
func (r *Round) runGroup(s int, g []int, n int, base uint64,
	call func(sub PartitionRound, idx []int, base uint64) (int, error), unavailable func(i int)) (int, error) {
	e := r.e
	k := 0
	if sub := r.subs[s]; sub != nil && !e.isQuarantined(s) {
		var err error
		if k, err = call(sub, g, base+Base(e.cfg.NumRows, e.cfg.Shards, s)); err == nil {
			return n, nil
		}
		if e.trigger(err) {
			e.quarantine(s, err)
		}
		if !e.isQuarantined(s) {
			return k, err
		}
	}
	for p := k; p < n; p++ {
		unavailable(At(g, p))
	}
	return n, nil
}

// Finish runs every live shard's write-back (step ⑦) concurrently,
// merges the per-shard statistics (sums for counts and modelled device
// time, parallel ε composition for the round guarantee) and closes the
// round. Quarantined shards are skipped and their half-open rounds
// aborted — this round's updates to those shards are lost, which is the
// documented blast radius of a quarantine (recovery restores the shard
// from the newest checkpoint). A quarantine-trigger error during a shard's write-back
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
	errs := make([]error, S)
	survived := make([]bool, S)
	r.e.forEach(func(i int) {
		if r.subs[i] == nil || r.e.isQuarantined(i) {
			return
		}
		st, err := r.subs[i].Finish()
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
	m := r.e.merge(stats)
	for i, q := range quar {
		if q {
			m.PerShard[i].Quarantined = true
			m.QuarantinedShards++
		}
	}
	return m, nil
}
