package fedora

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/bufferoram"
	"repro/internal/fdp"
	"repro/internal/obliv"
	"repro/internal/shard"
)

// DummyRequest is the padding value clients use in the hide-number-of-
// features mode (Sec 3.1): it counts toward the public K but never joins
// the union, exactly like a request for a value the user does not have.
const DummyRequest = obliv.InvalidID

// RoundStats summarizes one FL round for the evaluation harness. The
// canonical definition lives in the shard package (the engine merges it
// from its pipelines' rounds); the alias keeps fedora.RoundStats the
// name the fl/api/experiment layers use.
type RoundStats = shard.RoundStats

// ShardStats is one shard's entry in a round's per-shard breakdown.
type ShardStats = shard.ShardStats

// Round is an in-flight FL round (between BeginRound and Finish): a
// handle on the shard engine's round, so every operation below is one
// batch call.
//
// Its methods are safe for concurrent use by multiple goroutines:
// multiple trainer workers may stage downloads and uploads
// simultaneously while each pipeline's mutex keeps its ORAMs
// single-writer underneath; the shard engine runs a batch's per-shard
// groups in parallel.
type Round struct {
	c      *Controller
	pr     *shard.Round
	number uint64
}

// Number is the controller round number this handle belongs to.
func (r *Round) Number() uint64 { return r.number }

// ErrRoundInProgress is returned by BeginRound when the previous round
// was not finished.
var ErrRoundInProgress = shard.ErrRoundInProgress

// ErrRoundFinished is returned by round operations after Finish closed
// the round (including a concurrent Finish racing an in-flight serve).
var ErrRoundFinished = shard.ErrRoundFinished

// ErrShardUnavailable re-exports the shard engine's sentinel for rows
// routed to a quarantined shard; serving layers match it with errors.Is
// and degrade (skip the row) instead of failing the round.
var ErrShardUnavailable = shard.ErrShardUnavailable

// BeginRound runs steps ①–③ for the given per-client request lists and
// returns the Round handle used for serving, aggregation and completion.
// Clients pad with DummyRequest in the hide-count mode.
//
// Two-phase callers stage the round first (StageRound) and then call
// BeginRound with the SAME request lists: the staged round — whose plan
// may already be running on a background goroutine — is adopted. Begin
// with a different union than was staged fails with ErrStageMismatch
// (the staged plan has already consumed the sampling RNG stream, so it
// cannot be silently discarded without diverging from a cold run).
func (c *Controller) BeginRound(requests [][]uint64) (*Round, error) {
	c.mu.Lock()
	if s := c.staged; s != nil {
		if requestsDigest(requests) != s.digest {
			c.mu.Unlock()
			return nil, ErrStageMismatch
		}
		if s.started {
			c.mu.Unlock()
			<-s.done
			c.mu.Lock()
			if c.staged == s {
				c.staged = nil
			}
			c.mu.Unlock()
			return s.round, s.err
		}
		// Staged but never kicked (Prefetch off, or the kick lost a race
		// with this begin): run the begin inline with the staged lists.
		c.staged = nil
	}
	defer c.mu.Unlock()
	return c.beginRoundLocked(requests)
}

// beginRoundLocked is the single-phase round begin. The caller holds
// c.mu. The engine routes the requests and drives every shard's ①–③
// (concurrently when there are several); each pipeline runs its own
// union, ε-FDP sampling and ORAM reads over its row range.
func (c *Controller) beginRoundLocked(requests [][]uint64) (*Round, error) {
	if c.inRound {
		return nil, ErrRoundInProgress
	}
	if _, err := c.cfg.checkRequests(requests); err != nil {
		return nil, err
	}
	c.inRound = true
	c.round++
	pr, err := c.eng.BeginRound(requests)
	if err != nil {
		c.inRound = false
		return nil, err
	}
	return &Round{c: c, pr: pr, number: c.round}, nil
}

// checkRequests validates per-client request lists against the
// configured limits and returns the total request count.
func (cfg *Config) checkRequests(requests [][]uint64) (int, error) {
	if len(requests) > cfg.MaxClientsPerRound {
		return 0, fmt.Errorf("fedora: %d clients exceed the configured max %d",
			len(requests), cfg.MaxClientsPerRound)
	}
	total := 0
	for ci, reqs := range requests {
		if len(reqs) > cfg.MaxFeaturesPerClient {
			return 0, fmt.Errorf("fedora: client %d has %d features, max %d",
				ci, len(reqs), cfg.MaxFeaturesPerClient)
		}
		for _, row := range reqs {
			if row != DummyRequest && row >= cfg.NumRows {
				return 0, fmt.Errorf("fedora: client %d requests row %d out of range %d",
					ci, row, cfg.NumRows)
			}
		}
		total += len(reqs)
	}
	return total, nil
}

// ServeEntry serves one download (step ④) as a batch of one, with
// ServeOne's semantics. ok is false for rows sacrificed by the ε-FDP
// mechanism (k < k_union), and the caller applies its lost-entry policy
// (our FL layer, like the paper's prototype, drops the affected training
// samples).
func (r *Round) ServeEntry(row uint64) (entry []float32, ok bool, err error) {
	return ServeOne(r.ServeEntries, row)
}

// SubmitGradient folds one client's gradient for a row into the round's
// aggregate (step ⑥) as a batch of one, with SubmitOne's semantics.
func (r *Round) SubmitGradient(row uint64, grad []float32, nSamples int) (delivered bool, err error) {
	return SubmitOne(r.SubmitGradients, row, grad, nSamples)
}

// ServeOne is the single-row form of a batched serve, shared by every
// round implementation: a row the batch reports Unavailable (its shard
// quarantined, its cluster member lost) is a wrapped ErrShardUnavailable;
// ok=false with a nil error means the ε-FDP mechanism sacrificed the row.
func ServeOne(serve func([]uint64) ([]EntryResult, error), row uint64) (entry []float32, ok bool, err error) {
	res, err := serve([]uint64{row})
	if err != nil {
		return nil, false, err
	}
	if res[0].Unavailable {
		return nil, false, fmt.Errorf("fedora: row %d: %w", row, ErrShardUnavailable)
	}
	return res[0].Entry, res[0].OK, nil
}

// SubmitOne is the single-row form of a batched gradient upload, shared
// by every round implementation: a gradient for an unavailable row
// reports (false, nil), as the batch does.
func SubmitOne(submit func([]RowGradient) ([]bool, error), row uint64, grad []float32, nSamples int) (delivered bool, err error) {
	ok, err := submit([]RowGradient{{Row: row, Grad: grad, Samples: nSamples}})
	if err != nil {
		return false, err
	}
	return ok[0], nil
}

// Finish applies aggregated updates back to the main ORAM (step ⑦) and
// closes the round.
func (r *Round) Finish() (RoundStats, error) {
	st, err := r.pr.Finish()
	if errors.Is(err, ErrRoundFinished) {
		return st, err // a repeated Finish; the controller may be rounds ahead
	}
	c := r.c
	c.mu.Lock()
	c.inRound = false
	c.kickStageLocked()
	c.mu.Unlock()
	return st, err
}

// pipelineRound is one pipeline's open round: its plan runs as one fetch
// pass, and every serve, gradient and aggregate — for a planned row or
// not, both paths access the buffer ORAM — waits for that pass to finish.
// So the buffer ORAM sees all of a round's loads before its first serve,
// whichever goroutine ran the pass (Sec 4.3: all k rows are in the buffer
// ORAM before any download is served), and its state bytes do not depend
// on the scheduler.
type pipelineRound struct {
	p *pipeline
	// loaded holds the rows resident in the buffer ORAM, each mapped (in a
	// prefetch round, for its hit/waste counters) to whether a client has
	// consumed it yet.
	loaded map[uint64]bool
	stats  RoundStats
	done   bool

	fetched  chan struct{} // closed when the fetch pass has finished or failed
	fetchErr error         // the pass's outcome; read only after fetched is closed
}

// BeginRound implements shard.Partition: steps ①–③ over the pipeline's
// LOCAL row space. It plans every chunk — union, ε-FDP sampling and
// selection, which is everything that draws the pipeline's RNG or
// selector state — and then runs the fetch pass: inline, or under
// Config.Prefetch on the round's own goroutine, so that the main-ORAM
// reads overlap the caller's compute. Both ORAMs execute the identical
// op sequence either way; only the wall-clock placement changes.
func (p *pipeline) BeginRound(requests [][]uint64) (shard.PartitionRound, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil {
		return nil, ErrRoundInProgress
	}
	total, err := p.cfg.checkRequests(requests)
	if err != nil {
		return nil, err
	}
	flat := make([]uint64, 0, total)
	for _, reqs := range requests {
		flat = append(flat, reqs...)
	}
	p.round++
	p.buf.SetRound(p.round)

	// At most one row per request is ever loaded: size the set once.
	r := &pipelineRound{
		p: p, loaded: make(map[uint64]bool, len(flat)), fetched: make(chan struct{}),
	}
	r.stats.K = len(flat)
	r.stats.Prefetched = p.cfg.Prefetch
	p.plan, p.chunkEnds = p.plan[:0], p.chunkEnds[:0]
	for start := 0; start < len(flat); start += p.cfg.ChunkSize {
		if err := r.planChunk(flat[start:min(start+p.cfg.ChunkSize, len(flat))]); err != nil {
			return nil, err
		}
	}
	r.stats.Chunks = p.acct.Chunks()
	r.stats.RoundEpsilon = p.acct.RoundEpsilon()
	p.acct = fdp.Accountant{} // reset per round
	p.cur = r
	if p.cfg.Prefetch {
		go func() {
			p.mu.Lock()
			r.fetchErr = r.fetch()
			p.mu.Unlock()
			close(r.fetched)
		}()
		return r, nil
	}
	r.fetchErr = r.fetch()
	close(r.fetched)
	if r.fetchErr != nil {
		p.cur = nil
		return nil, r.fetchErr
	}
	return r, nil
}

// union computes the chunk union: the oblivious sorting-network union in
// functional mode, a behaviour-identical map dedup in phantom mode
// (sorting a million requests would only re-derive the same sizes).
// Either way the DRAM model is charged the paper's Θ(K²) linear scan
// (Sec 4.2) — modelled time is the paper's design, host work is this
// implementation's. The returned ids alias p.unionScratch and are valid
// until the next call.
func (p *pipeline) union(chunk []uint64) ([]uint64, int, time.Duration) {
	cost := obliv.UnionScanCost(len(chunk)) * 8 // 8-byte slots
	d := p.dram.Charge(0 /* read */, 0, int(cost))
	if p.cfg.Phantom {
		seen := make(map[uint64]bool, len(chunk))
		var ids []uint64
		for _, r := range chunk {
			if r == DummyRequest || seen[r] {
				continue
			}
			seen[r] = true
			ids = append(ids, r)
		}
		return ids, len(ids), d
	}
	res := p.unionScratch.Union(chunk)
	return res.IDs[:res.Size], res.Size, d
}

// planChunk runs the plan half of steps ①–③ for one chunk: the chunk
// union, ε-FDP sampling and the selection-policy ordering. It appends the
// chunk's main-ORAM ops — the exec half, which the fetch pass runs — to
// p.plan. Everything that consumes the pipeline's RNG or selector state
// happens here, in chunk order. The caller holds p.mu.
func (r *pipelineRound) planChunk(chunk []uint64) error {
	p := r.p
	ids, kUnion, unionDur := p.union(chunk)
	r.stats.UnionTime += unionDur
	r.stats.KUnion += kUnion

	// ② choose k. Path ORAM+ has no mechanism: one main-ORAM access per
	// request (Strawman 1 policy, Sec 6.1).
	var k int
	if p.cfg.Backend == BackendPathORAMPlus {
		k = len(chunk)
	} else {
		var err error
		k, err = p.mech.Sample(len(chunk), kUnion, p.rng)
		if err != nil {
			return err
		}
	}
	p.acct.Observe(p.effEps)
	r.stats.KSampled += k
	if k > kUnion {
		r.stats.Dummy += k - kUnion
	} else {
		r.stats.Lost += kUnion - k
	}

	// ③ order the k reads by the configured selection policy (Sec 4.2),
	// padded with dummies when k > k_union.
	nReal := min(k, kUnion)
	p.sel.observe(ids)
	ordered := p.sel.order(ids)
	p.plan = slices.Grow(p.plan, k)
	for _, row := range ordered[:nReal] {
		p.plan = append(p.plan, fetchOp{row: row})
		p.sel.markRead(row)
	}
	for i := 0; i < k-nReal; i++ {
		p.plan = append(p.plan, fetchOp{dummy: true})
	}
	p.chunkEnds = append(p.chunkEnds, len(p.plan))
	return nil
}

// fetch is the round's I/O pass, run with p.mu held from start to end:
// the previous round's deferred write-back pass first — so the main ORAM
// sees the op order of a synchronous run, and its modelled time lands in
// this round's UpdateTime — then, chunk by chunk, one merged main-ORAM
// read and the chunk's buffer loads.
func (r *pipelineRound) fetch() error {
	p := r.p
	if r.done {
		return ErrRoundFinished // aborted before the pass took the lock
	}
	if p.evict.live {
		d, err := p.applyEvict()
		r.stats.UpdateTime += d
		if err != nil {
			return err
		}
	}
	lo := 0
	for _, hi := range p.chunkEnds {
		ops := p.plan[lo:hi]
		lo = hi
		if err := r.readChunk(ops); err != nil {
			return err
		}
		for _, op := range ops {
			if err := r.loadOp(op); err != nil {
				return err
			}
		}
	}
	return nil
}

// readChunk performs the main-ORAM reads of one chunk's plan as a single
// merged batch into p.chunkRows: the rows the ops will load, in op order.
// The download phase never writes the main ORAM, so reading the whole
// chunk before its first buffer load leaves both ORAMs, p.rng and every
// stat where op-by-op reads would; only the host-side bucket work is
// shared. Path ORAM+ remaps and writes back on every read and has nothing
// to merge — loadOp reads it row by row. The caller holds p.mu.
func (r *pipelineRound) readChunk(ops []fetchOp) error {
	p := r.p
	if p.path != nil {
		return nil
	}
	p.chunkIDs = p.chunkIDs[:0]
	for _, op := range ops {
		if _, resident := r.loaded[op.row]; !op.dummy && !resident {
			p.chunkIDs = append(p.chunkIDs, op.row)
		}
	}
	n := len(p.chunkIDs) * len(p.rowBytes)
	p.chunkRows = slices.Grow(p.chunkRows[:0], n)[:n]
	p.chunkNext = 0
	d, err := p.raw.AOAccessBatch(p.chunkIDs, p.chunkRows)
	r.stats.ReadTime += d
	return err
}

// loadOp runs one planned op: it moves the row from the chunk's merged
// read (the next one in p.chunkRows — the ops run in the order readChunk
// saw them) into the buffer ORAM. Dummies, and rows already resident
// (cross-chunk duplicates), still cost a full, indistinguishable access
// pair. The caller holds p.mu.
func (r *pipelineRound) loadOp(op fetchOp) error {
	p := r.p
	if op.dummy {
		return r.dummyFetch()
	}
	if _, resident := r.loaded[op.row]; resident {
		r.stats.CrossChunkDup++
		return r.dummyFetch()
	}
	var payload []byte
	if p.path != nil {
		var (
			d   time.Duration
			err error
		)
		payload, d, err = p.path.Read(op.row)
		r.stats.ReadTime += d
		if err != nil {
			return err
		}
	} else {
		bs := len(p.rowBytes)
		payload = p.chunkRows[p.chunkNext*bs : (p.chunkNext+1)*bs]
		p.chunkNext++
	}
	decodeF32s(p.rowFloats, payload) // phantom payloads are zeros
	d, err := p.buf.Load(op.row, p.rowFloats)
	r.stats.ReadTime += d
	if err != nil {
		return err
	}
	r.loaded[op.row] = false
	return nil
}

// dummyFetch burns an indistinguishable main-ORAM + buffer-ORAM access.
func (r *pipelineRound) dummyFetch() error {
	p := r.p
	var (
		d   time.Duration
		err error
	)
	if p.path != nil {
		_, d, err = p.path.Read(uint64(p.rng.Int63n(int64(p.cfg.NumRows))))
	} else {
		d, err = p.raw.AODummy()
	}
	r.stats.ReadTime += d
	if err != nil {
		return err
	}
	d, err = p.buf.LoadDummy()
	r.stats.ReadTime += d
	return err
}

// await blocks until the fetch pass has finished and returns its error.
func (r *pipelineRound) await() error {
	<-r.fetched
	return r.fetchErr
}

// batch runs one serve-phase buffer-ORAM access per row idx lists (all n
// when idx is nil), in order, after the fetch pass and under p.mu,
// adding the accesses' modelled time to *modelled. local gives a batch
// row's LOCAL index; op makes the access and records its outcome. A row
// that is not resident — sacrificed by the mechanism or never requested
// — is a miss (bufferoram.ErrNotLoaded), not a failure: the access was
// still made, indistinguishably.
func (r *pipelineRound) batch(n int, idx []int, local func(i int) uint64, modelled *time.Duration,
	op func(i int, row uint64) (time.Duration, error)) (int, error) {
	if err := r.await(); err != nil {
		return 0, err
	}
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	if r.done {
		return 0, ErrRoundFinished
	}
	if idx != nil {
		n = len(idx)
	}
	for p := 0; p < n; p++ {
		i := shard.At(idx, p)
		row := local(i)
		if r.stats.Prefetched {
			// Staging accounting: a fetched-ahead row a client consumed is a hit.
			if consumed, resident := r.loaded[row]; resident && !consumed {
				r.loaded[row] = true
			}
		}
		d, err := op(i, row)
		*modelled += d
		if err != nil && !errors.Is(err, bufferoram.ErrNotLoaded) {
			return p, err
		}
	}
	return n, nil
}

// ServeEntries implements shard.PartitionRound (step ④).
func (r *pipelineRound) ServeEntries(rows []uint64, idx []int, base uint64, out []EntryResult) (int, error) {
	return r.batch(len(rows), idx, func(i int) uint64 { return rows[i] - base }, &r.stats.ServeTime,
		func(i int, row uint64) (time.Duration, error) {
			entry, d, err := r.p.buf.Serve(row)
			if err != nil {
				entry = nil
			}
			out[i] = EntryResult{Row: rows[i], Entry: entry, OK: err == nil}
			return d, err
		})
}

// SubmitGradients implements shard.PartitionRound (step ⑥).
func (r *pipelineRound) SubmitGradients(grads []RowGradient, idx []int, base uint64, out []bool) (int, error) {
	return r.batch(len(grads), idx, func(i int) uint64 { return grads[i].Row - base }, &r.stats.AggregateTime,
		func(i int, row uint64) (time.Duration, error) {
			d, err := r.p.buf.Aggregate(row, grads[i].Grad, grads[i].Samples)
			out[i] = err == nil
			return d, err
		})
}

// SubmitAggregates implements shard.PartitionRound: the upload plane's
// pre-weighted per-row sums, folded without the aggregator's Pre.
func (r *pipelineRound) SubmitAggregates(aggs []RowAggregate, idx []int, base uint64, out []bool) (int, error) {
	return r.batch(len(aggs), idx, func(i int) uint64 { return aggs[i].Row - base }, &r.stats.AggregateTime,
		func(i int, row uint64) (time.Duration, error) {
			d, err := r.p.buf.AggregateRaw(row, aggs[i].Sum, aggs[i].Count)
			out[i] = err == nil
			return d, err
		})
}

// Finish implements shard.PartitionRound (step ⑦): it unloads every
// resident row from the buffer ORAM — slot recycling and the aggregator's
// Post step must run before the next round's loads — into the pipeline's
// evict pass, and writes that pass back to the main ORAM now, or under
// Config.Prefetch leaves it to the next round's fetch pass, off this
// round's critical path.
func (r *pipelineRound) Finish() (RoundStats, error) {
	// Even rows no client consumed must be resident before the buffer
	// unloads below (every planned row moves back, served or not — the
	// adversary-visible counts do not depend on client behaviour).
	fetchErr := r.await()
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.done {
		return r.stats, ErrRoundFinished
	}
	if fetchErr != nil {
		r.done = true
		p.cur = nil
		return r.stats, fetchErr
	}
	// Deterministic write-back order: map iteration would randomize the
	// ORAM state evolution run-to-run, breaking bit-identical snapshots
	// (all k rows move either way, so the order leaks nothing new).
	ev := &p.evict
	ev.rows = ev.rows[:0]
	hits := 0
	for row, consumed := range r.loaded {
		ev.rows = append(ev.rows, row)
		if consumed {
			hits++
		}
	}
	slices.Sort(ev.rows)
	dim := p.cfg.Dim
	ev.entries = slices.Grow(ev.entries[:0], len(ev.rows)*dim)[:len(ev.rows)*dim]
	for i, row := range ev.rows {
		d, err := p.buf.UnloadTo(row, ev.entries[i*dim:(i+1)*dim])
		r.stats.UpdateTime += d
		if err != nil {
			return r.stats, err
		}
	}
	// Dummy write-backs keep the outbound access count at k (the
	// adversary sees k entries move in each direction, Sec 4.3).
	ev.dummy = r.stats.Dummy
	for i := 0; i < ev.dummy; i++ {
		d, err := p.buf.UnloadDummy()
		r.stats.UpdateTime += d
		if err != nil {
			return r.stats, err
		}
	}
	ev.live = true
	if r.stats.Prefetched {
		r.stats.PrefetchHits = uint64(hits)
		r.stats.PrefetchWasted = uint64(len(ev.rows) - hits)
		p.prefetchHits += r.stats.PrefetchHits
		p.prefetchWasted += r.stats.PrefetchWasted
	} else {
		d, err := p.applyEvict()
		r.stats.UpdateTime += d
		if err != nil {
			return r.stats, err
		}
	}
	r.done = true
	p.cur = nil
	return r.stats, nil
}

// ---- Batched round operations ---------------------------------------
//
// Remote clients touch many rows per round; serving them one HTTP
// request at a time pays the wire overhead K times. The batch entry
// points below amortize it: one call serves (or aggregates) a whole
// working set, and the shard engine runs each shard's share of it
// concurrently.

// EntryResult is one row's outcome in a batched download (see
// shard.EntryResult).
type EntryResult = shard.EntryResult

// RowGradient is one row's contribution to a batched gradient upload.
type RowGradient = shard.RowGradient

// RowAggregate is one row's combined contribution in a batched
// aggregate upload: the unmasked per-row output of the wire plane.
type RowAggregate = shard.RowAggregate

// ServeEntries serves a batch of downloads (step ④), one EntryResult per
// requested row, in request order. Rows on a quarantined shard come back
// Unavailable. Duplicate rows are allowed and served independently.
func (r *Round) ServeEntries(rows []uint64) ([]EntryResult, error) {
	out := make([]EntryResult, len(rows))
	if _, err := r.pr.ServeEntries(rows, nil, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitGradients folds a batch of client gradients into the round's
// aggregate (step ⑥), returning per-item delivery in input order;
// delivered is false when the row was not resident (the gradient is
// dropped, matching a lost entry) or its shard is quarantined. Each
// shard folds its rows in batch order (so two gradients for one row fold
// in the order given), and batches are applied in call order, which is
// what the FL merge step relies on for seed-determinism.
func (r *Round) SubmitGradients(grads []RowGradient) ([]bool, error) {
	out := make([]bool, len(grads))
	if _, err := r.pr.SubmitGradients(grads, nil, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitAggregates folds a batch of per-row aggregates into the round,
// returning per-item delivery in input order: sum is Σ_c n_c·Δθ_c and
// count is Σ_c n_c over the contributing clients. This is the upload
// plane's entry point (internal/wire): the per-client FedAvg
// pre-weighting happened client-side before masking, so the buffer's
// aggregator Pre is bypassed — only the Post division by the total count
// runs at Finish. Rows within one batch must be distinct — the wire
// aggregator emits each row at most once, in ascending order.
func (r *Round) SubmitAggregates(aggs []RowAggregate) ([]bool, error) {
	out := make([]bool, len(aggs))
	if _, err := r.pr.SubmitAggregates(aggs, nil, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}
