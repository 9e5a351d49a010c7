package fedora

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// canonical definition lives in the shard package (both the monolithic
// pipeline here and the sharded engine produce it); the alias keeps
// fedora.RoundStats the name the fl/api/experiment layers use.
type RoundStats = shard.RoundStats

// ShardStats is the per-shard breakdown attached to a sharded round.
type ShardStats = shard.ShardStats

// Round is an in-flight FL round (between BeginRound and Finish): a
// handle on the one pipeline's round, or on the shard engine's round when
// the controller routes over several pipelines.
//
// ServeEntry, SubmitGradient and Finish are safe for concurrent use by
// multiple goroutines: multiple trainer workers may stage downloads and
// uploads simultaneously while each pipeline's mutex keeps its ORAMs
// single-writer underneath; operations on rows owned by different shards
// proceed in parallel.
type Round struct {
	c      *Controller
	pr     shard.PartitionRound
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
// concurrently; each pipeline runs its own union, ε-FDP sampling and ORAM
// reads over its row range.
func (c *Controller) beginRoundLocked(requests [][]uint64) (*Round, error) {
	if c.inRound {
		return nil, ErrRoundInProgress
	}
	if _, err := c.cfg.checkRequests(requests); err != nil {
		return nil, err
	}
	c.inRound = true
	c.round++
	var (
		pr  shard.PartitionRound
		err error
	)
	if c.eng != nil {
		pr, err = c.eng.BeginRound(requests)
	} else {
		pr, err = c.parts[0].BeginRound(requests)
	}
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

// ServeEntry serves a client's download request (step ④). ok reports
// whether the entry was read this round; rows sacrificed by the ε-FDP
// mechanism (k < k_union) return ok = false, and the caller applies its
// lost-entry policy (our FL layer, like the paper's prototype, drops the
// affected training samples).
func (r *Round) ServeEntry(row uint64) (entry []float32, ok bool, err error) {
	return r.pr.ServeEntry(row)
}

// SubmitGradient folds one client's gradient for a row into the round's
// aggregate (step ⑥). delivered is false when the row was not resident
// (the gradient is dropped, matching a lost entry).
func (r *Round) SubmitGradient(row uint64, grad []float32, nSamples int) (delivered bool, err error) {
	return r.pr.SubmitGradient(row, grad, nSamples)
}

// SubmitAggregate folds an already-aggregated multi-client contribution
// for a row into the round's buffer: sum is Σ_c n_c·Δθ_c and count is
// Σ_c n_c over the contributing clients. This is the upload plane's
// entry point (internal/wire): the per-client FedAvg pre-weighting
// happened client-side before masking, so the buffer's aggregator Pre
// is bypassed — only the Post division by the total count runs at
// Finish. delivered is false when the row was not resident.
func (r *Round) SubmitAggregate(row uint64, sum []float32, count float32) (delivered bool, err error) {
	return r.pr.SubmitAggregate(row, sum, count)
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
	began  time.Time

	fetched  chan struct{} // closed when the fetch pass has finished or failed
	fetchErr error         // the pass's outcome; read only after fetched is closed
	// waitedAt is how long after began the first call had to wait on
	// fetched (0 = none has).
	waitedAt atomic.Int64
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
		p: p, loaded: make(map[uint64]bool, len(flat)),
		began: time.Now(), fetched: make(chan struct{}),
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
	wallStart := time.Now()
	ids, kUnion, unionDur := p.union(chunk)
	r.stats.UnionTime += unionDur
	r.stats.UnionWallTime += time.Since(wallStart)
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
// sees the op order of a synchronous run — then, chunk by chunk, one
// merged main-ORAM read and the chunk's buffer loads.
func (r *pipelineRound) fetch() error {
	p := r.p
	if r.done {
		return ErrRoundFinished // aborted before the pass took the lock
	}
	start := time.Now()
	if p.evict.live {
		d, err := p.applyEvict()
		r.stats.EvictTime += d
		if err != nil {
			return err
		}
		r.stats.EvictWallTime = time.Since(start)
		start = time.Now()
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
	end := time.Now()
	if !r.stats.Prefetched {
		r.stats.ReadWallTime = end.Sub(start) // the caller waited out all of it
		return nil
	}
	r.stats.PrefetchWallTime = end.Sub(start)
	if w := time.Duration(r.waitedAt.Load()); w > 0 {
		r.stats.ReadWallTime = end.Sub(r.began) - w
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
	select {
	case <-r.fetched:
	default:
		r.waitedAt.CompareAndSwap(0, int64(time.Since(r.began)))
		<-r.fetched
	}
	return r.fetchErr
}

// bufferOp runs one serve-phase access to the buffer ORAM for row, after
// the fetch pass and under p.mu, adding its modelled time to *modelled.
// hit is false when the row is not resident — sacrificed by the mechanism
// or never requested; the access was still made, indistinguishably.
func (r *pipelineRound) bufferOp(row uint64, modelled *time.Duration, op func() (time.Duration, error)) (hit bool, err error) {
	if err := r.await(); err != nil {
		return false, err
	}
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	if r.done {
		return false, ErrRoundFinished
	}
	if r.stats.Prefetched {
		// Staging accounting: a fetched-ahead row a client consumed is a hit.
		if consumed, resident := r.loaded[row]; resident && !consumed {
			r.loaded[row] = true
		}
	}
	d, err := op()
	*modelled += d
	if errors.Is(err, bufferoram.ErrNotLoaded) {
		return false, nil
	}
	return err == nil, err
}

// ServeEntry implements shard.PartitionRound (step ④).
func (r *pipelineRound) ServeEntry(row uint64) (entry []float32, ok bool, err error) {
	ok, err = r.bufferOp(row, &r.stats.ServeTime, func() (d time.Duration, err error) {
		entry, d, err = r.p.buf.Serve(row)
		return d, err
	})
	if !ok {
		entry = nil
	}
	return entry, ok, err
}

// SubmitGradient implements shard.PartitionRound (step ⑥).
func (r *pipelineRound) SubmitGradient(row uint64, grad []float32, nSamples int) (delivered bool, err error) {
	return r.bufferOp(row, &r.stats.AggregateTime, func() (time.Duration, error) {
		return r.p.buf.Aggregate(row, grad, nSamples)
	})
}

// SubmitAggregate implements shard.PartitionRound: the upload plane's
// pre-weighted per-row sum, folded without the aggregator's Pre.
func (r *pipelineRound) SubmitAggregate(row uint64, sum []float32, count float32) (delivered bool, err error) {
	return r.bufferOp(row, &r.stats.AggregateTime, func() (time.Duration, error) {
		return r.p.buf.AggregateRaw(row, sum, count)
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
	wallStart := time.Now()
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
	r.stats.FinishWallTime = time.Since(wallStart)
	r.done = true
	p.cur = nil
	return r.stats, nil
}

// ---- Batched round operations ---------------------------------------
//
// Remote clients touch many rows per round; serving them one HTTP
// request at a time pays the wire overhead K times. The batch entry
// points below amortize it: one call serves (or aggregates) a whole
// working set, and the rows fan out across the per-shard pipelines
// concurrently.

// EntryResult is one row's outcome in a batched download: OK is false
// for rows the ε-FDP mechanism sacrificed this round (the caller applies
// its lost-entry policy, exactly as with ServeEntry). Unavailable marks
// rows owned by a quarantined shard (always with OK false): the row
// could not be served this round at all, and the trainer should skip or
// resample it rather than treat the silence as a model value.
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

// ServeEntries serves a batch of downloads (step ④), one EntryResult per
// requested row, in request order. Rows owned by different shards are
// served in parallel; one shard's rows sequentially (its pipeline mutex
// would serialize the goroutines anyway). Duplicate rows are allowed and
// served independently.
func (r *Round) ServeEntries(rows []uint64) ([]EntryResult, error) {
	out := make([]EntryResult, len(rows))
	err := r.fanOut(len(rows), func(i int) uint64 { return rows[i] }, func(i int) error {
		entry, ok, err := r.ServeEntry(rows[i])
		if errors.Is(err, ErrShardUnavailable) {
			// Degraded serving: the row's shard is quarantined. The batch
			// succeeds; this row is reported unserveable.
			out[i] = EntryResult{Row: rows[i], Unavailable: true}
			return nil
		}
		if err != nil {
			return err
		}
		out[i] = EntryResult{Row: rows[i], Entry: entry, OK: ok}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitGradients folds a batch of client gradients into the round's
// aggregate (step ⑥), returning per-item delivery in input order. Each
// shard folds its rows in batch order (so two gradients for one row fold
// in the order given), and batches are applied in call order, which is
// what the FL merge step relies on for seed-determinism.
func (r *Round) SubmitGradients(grads []RowGradient) ([]bool, error) {
	delivered := make([]bool, len(grads))
	err := r.fanOut(len(grads), func(i int) uint64 { return grads[i].Row }, func(i int) error {
		g := grads[i]
		ok, err := r.SubmitGradient(g.Row, g.Grad, g.Samples)
		if errors.Is(err, ErrShardUnavailable) {
			// The shard quarantined mid-round; this gradient is lost, the
			// rest of the batch still folds.
			delivered[i] = false
			return nil
		}
		if err != nil {
			return err
		}
		delivered[i] = ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	return delivered, nil
}

// RowAggregate is one row's combined contribution in a batched
// aggregate upload: the unmasked per-row output of the wire plane.
type RowAggregate struct {
	Row   uint64
	Sum   []float32
	Count float32
}

// SubmitAggregates folds a batch of per-row aggregates (the unmasked
// output of the upload plane) into the round, returning per-item
// delivery in input order. Rows within one batch must be distinct —
// the wire aggregator emits each row at most once, in ascending order.
func (r *Round) SubmitAggregates(aggs []RowAggregate) ([]bool, error) {
	delivered := make([]bool, len(aggs))
	err := r.fanOut(len(aggs), func(i int) uint64 { return aggs[i].Row }, func(i int) error {
		a := aggs[i]
		ok, err := r.SubmitAggregate(a.Row, a.Sum, a.Count)
		if errors.Is(err, ErrShardUnavailable) {
			delivered[i] = false
			return nil
		}
		if err != nil {
			return err
		}
		delivered[i] = ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	return delivered, nil
}

// fanOut runs fn over [0, n): inline when every row lives on one shard;
// otherwise the indices are grouped by the shard that owns rowOf(i) and
// each group runs on its own goroutine (a bounded pool), in request
// order. One shard's ORAMs therefore see a batch's rows in the same order
// whatever the scheduler does — dispatching per row let two rows of one
// shard race, and the shard's state bytes with them. Every index of a
// fanned-out batch runs; the lowest-index error wins, so failures are
// deterministic too.
func (r *Round) fanOut(n int, rowOf func(i int) uint64, fn func(i int) error) error {
	c := r.c
	shardOf := func(i int) int {
		if row := rowOf(i); row < c.cfg.NumRows {
			return shard.ShardOf(c.cfg.NumRows, len(c.parts), row)
		}
		return 0 // out-of-range rows fail in fn; any group will do
	}
	spread := false
	if n > 1 {
		first := shardOf(0)
		for i := 1; i < n && !spread; i++ {
			spread = shardOf(i) != first
		}
	}
	if !spread {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	groups := make([][]int, len(c.parts))
	for i := 0; i < n; i++ {
		si := shardOf(i)
		groups[si] = append(groups[si], i)
	}
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			for _, i := range g {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
