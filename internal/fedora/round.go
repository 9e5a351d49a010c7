package fedora

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
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

// Round is an in-flight FL round (between BeginRound and Finish).
//
// ServeEntry, SubmitGradient and Finish are safe for concurrent use by
// multiple goroutines: multiple trainer workers may stage downloads and
// uploads simultaneously while the controller's mutex keeps the ORAM
// pipeline single-writer underneath. When the controller is sharded the
// round delegates to the shard engine instead, and operations on rows
// owned by different shards proceed in parallel.
type Round struct {
	c      *Controller
	er     *shard.Round // sharded mode: the engine round (nil otherwise)
	number uint64
	loaded map[uint64]bool
	stats  RoundStats
	done   bool
	// stream carries the lookahead pipeline's per-row staging state when
	// Config.Prefetch is on and the controller is monolithic: serves
	// block per row until the background fetcher has loaded it. Nil in
	// sync mode and in sharded mode (each sub-controller owns one).
	stream *streamState
}

// Number is the controller round number this handle belongs to.
func (r *Round) Number() uint64 { return r.number }

// ErrRoundInProgress is returned by BeginRound when the previous round
// was not finished.
var ErrRoundInProgress = errors.New("fedora: previous round not finished")

// ErrRoundFinished is returned by round operations after Finish closed
// the round (including a concurrent Finish racing an in-flight serve).
var ErrRoundFinished = errors.New("fedora: round already finished")

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
// c.mu; in prefetch mode the heavy ORAM reads are handed to a background
// fetcher and only the (cheap) planning runs under the lock.
func (c *Controller) beginRoundLocked(requests [][]uint64) (*Round, error) {
	if c.inRound {
		return nil, ErrRoundInProgress
	}
	flat, err := c.flattenRequests(requests)
	if err != nil {
		return nil, err
	}
	c.inRound = true
	c.round++

	// Sharded mode: the engine routes the requests and drives every
	// shard's ①–③ concurrently; each sub-controller runs its own union,
	// ε-FDP sampling and ORAM reads over its row range (and, in prefetch
	// mode, spawns its own fetcher — the staging machinery lives only on
	// this top-level controller).
	if c.eng != nil {
		er, err := c.eng.BeginRound(requests)
		if err != nil {
			c.inRound = false
			return nil, err
		}
		return &Round{c: c, er: er, number: c.round}, nil
	}
	c.buf.SetRound(c.round)

	// At most one row per request is ever loaded: size the set once.
	r := &Round{c: c, loaded: make(map[uint64]bool, len(flat)), number: c.round}
	r.stats.K = len(flat)

	if !c.cfg.Prefetch {
		for start := 0; start < len(flat); start += c.cfg.ChunkSize {
			end := start + c.cfg.ChunkSize
			if end > len(flat) {
				end = len(flat)
			}
			if err := r.processChunk(flat[start:end]); err != nil {
				c.inRound = false
				return nil, err
			}
		}
		r.stats.Chunks = c.acct.Chunks()
		r.stats.RoundEpsilon = c.acct.RoundEpsilon()
		c.acct = fdp.Accountant{} // reset per round
		c.cur = r
		return r, nil
	}

	// Lookahead pipeline: plan every chunk now — union, ε-FDP sampling
	// and selection consume exactly the RNG/selector stream the sync path
	// would — then hand the main-ORAM ops to a background fetcher. The
	// previous round's deferred write-back pass drains on the same
	// fetcher FIRST, so the main ORAM sees the identical op sequence as
	// sync mode; only the wall-clock placement changes.
	var plan [][]fetchOp // one op list per chunk: the fetcher merges reads chunk by chunk
	for start := 0; start < len(flat); start += c.cfg.ChunkSize {
		end := start + c.cfg.ChunkSize
		if end > len(flat) {
			end = len(flat)
		}
		ops, err := r.planChunk(flat[start:end], nil) // the plan keeps each chunk's ops
		if err != nil {
			c.inRound = false
			return nil, err
		}
		plan = append(plan, ops)
	}
	r.stats.Chunks = c.acct.Chunks()
	r.stats.RoundEpsilon = c.acct.RoundEpsilon()
	c.acct = fdp.Accountant{} // reset per round
	r.stats.Prefetched = true
	r.stream = newStreamState(plan)
	pending := c.pending
	c.pending = nil
	c.cur = r
	go r.runFetcher(plan, pending)
	return r, nil
}

// flattenRequests validates the per-client request lists against the
// configured limits and returns them flattened. Caller holds c.mu.
func (c *Controller) flattenRequests(requests [][]uint64) ([]uint64, error) {
	if len(requests) > c.cfg.MaxClientsPerRound {
		return nil, fmt.Errorf("fedora: %d clients exceed the configured max %d",
			len(requests), c.cfg.MaxClientsPerRound)
	}
	total := 0
	for _, reqs := range requests {
		total += len(reqs)
	}
	flat := make([]uint64, 0, total)
	for ci, reqs := range requests {
		if len(reqs) > c.cfg.MaxFeaturesPerClient {
			return nil, fmt.Errorf("fedora: client %d has %d features, max %d",
				ci, len(reqs), c.cfg.MaxFeaturesPerClient)
		}
		for _, row := range reqs {
			if row != DummyRequest && row >= c.cfg.NumRows {
				return nil, fmt.Errorf("fedora: client %d requests row %d out of range %d",
					ci, row, c.cfg.NumRows)
			}
			flat = append(flat, row)
		}
	}
	return flat, nil
}

// union computes the chunk union: the oblivious sorting-network union in
// functional mode, a behaviour-identical map dedup in phantom mode
// (sorting a million requests would only re-derive the same sizes).
// Either way the DRAM model is charged the paper's Θ(K²) linear scan
// (Sec 4.2) — modelled time is the paper's design, host work is this
// implementation's. The returned ids alias c.unionScratch and are valid
// until the next call.
func (c *Controller) union(chunk []uint64) ([]uint64, int, time.Duration) {
	cost := obliv.UnionScanCost(len(chunk)) * 8 // 8-byte slots
	d := c.dram.Charge(0 /* read */, 0, int(cost))
	if c.cfg.Phantom {
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
	res := c.unionScratch.Union(chunk)
	return res.IDs[:res.Size], res.Size, d
}

// planChunk runs the plan half of steps ①–③ for one chunk: the chunk
// union, ε-FDP sampling and the selection-policy ordering. It returns
// the main-ORAM ops to execute — the exec half, appended to ops[:0] —
// which the sync path runs inline (processChunk) and the prefetch path
// hands to the background fetcher. Everything that consumes the
// controller's RNG or selector state happens here, in chunk order, so the
// two modes draw identical streams. The caller holds c.mu.
func (r *Round) planChunk(chunk []uint64, ops []fetchOp) ([]fetchOp, error) {
	c := r.c
	wallStart := time.Now()
	ids, kUnion, unionDur := c.union(chunk)
	r.stats.UnionTime += unionDur
	r.stats.UnionWallTime += time.Since(wallStart)
	r.stats.KUnion += kUnion
	if len(chunk) == 0 {
		return ops[:0], nil
	}

	// ② choose k. Path ORAM+ has no mechanism: one main-ORAM access per
	// request (Strawman 1 policy, Sec 6.1).
	var k int
	if c.cfg.Backend == BackendPathORAMPlus {
		k = len(chunk)
	} else {
		var err error
		k, err = c.mech.Sample(len(chunk), kUnion, c.rng)
		if err != nil {
			return nil, err
		}
	}
	c.acct.Observe(c.effEps)
	r.stats.KSampled += k
	if k > kUnion {
		r.stats.Dummy += k - kUnion
	} else {
		r.stats.Lost += kUnion - k
	}

	// ③ order the k reads by the configured selection policy (Sec 4.2),
	// padded with dummies when k > k_union.
	nReal := k
	if nReal > kUnion {
		nReal = kUnion
	}
	c.sel.observe(ids)
	ordered := c.sel.order(ids)
	ops = slices.Grow(ops[:0], k)
	for _, row := range ordered[:nReal] {
		ops = append(ops, fetchOp{row: row})
		c.sel.markRead(row)
	}
	for i := 0; i < k-nReal; i++ {
		ops = append(ops, fetchOp{dummy: true})
	}
	return ops, nil
}

// processChunk runs steps ①–③ for one chunk of requests, synchronously.
// The caller (beginRoundLocked) holds c.mu.
func (r *Round) processChunk(chunk []uint64) error {
	ops, err := r.planChunk(chunk, r.c.chunkOps)
	if err != nil {
		return err
	}
	r.c.chunkOps = ops // run to completion below; the next chunk reuses the array
	wallStart := time.Now()
	if err := r.readChunk(ops); err != nil {
		return err
	}
	for _, op := range ops {
		if err := r.loadOp(op); err != nil {
			return err
		}
	}
	r.stats.ReadWallTime += time.Since(wallStart)
	return nil
}

// readChunk performs the main-ORAM reads of one chunk's plan as a single
// merged batch into c.chunkRows: the rows the ops will load, in op order.
// The download phase never writes the main ORAM, so reading the whole
// chunk before its first buffer load leaves both ORAMs, c.rng and every
// stat where op-by-op reads would; only the host-side bucket work is
// shared. Path ORAM+ remaps and writes back on every read and has nothing
// to merge — loadOp reads it row by row. The caller holds c.mu.
func (r *Round) readChunk(ops []fetchOp) error {
	c := r.c
	if c.path != nil {
		return nil
	}
	c.chunkIDs = c.chunkIDs[:0]
	for _, op := range ops {
		if !op.dummy && !r.loaded[op.row] {
			c.chunkIDs = append(c.chunkIDs, op.row)
		}
	}
	n := len(c.chunkIDs) * len(c.rowBytes)
	c.chunkRows = slices.Grow(c.chunkRows[:0], n)[:n]
	c.chunkNext = 0
	d, err := c.raw.AOAccessBatch(c.chunkIDs, c.chunkRows)
	r.stats.ReadTime += d
	return err
}

// loadOp runs one planned op: it moves the row from the chunk's merged
// read (the next one in c.chunkRows — the ops run in the order readChunk
// saw them) into the buffer ORAM. Dummies, and rows already resident
// (cross-chunk duplicates), still cost a full, indistinguishable access
// pair. The caller holds c.mu.
func (r *Round) loadOp(op fetchOp) error {
	c := r.c
	if op.dummy {
		return r.dummyFetch()
	}
	if r.loaded[op.row] {
		r.stats.CrossChunkDup++
		return r.dummyFetch()
	}
	var payload []byte
	if c.path != nil {
		var (
			d   time.Duration
			err error
		)
		payload, d, err = c.path.Read(op.row)
		r.stats.ReadTime += d
		if err != nil {
			return err
		}
	} else {
		bs := len(c.rowBytes)
		payload = c.chunkRows[c.chunkNext*bs : (c.chunkNext+1)*bs]
		c.chunkNext++
	}
	decodeF32s(c.rowFloats, payload) // phantom payloads are zeros
	d, err := c.buf.Load(op.row, c.rowFloats)
	r.stats.ReadTime += d
	if err != nil {
		return err
	}
	r.loaded[op.row] = true
	return nil
}

// dummyFetch burns an indistinguishable main-ORAM + buffer-ORAM access.
func (r *Round) dummyFetch() error {
	c := r.c
	var (
		d   time.Duration
		err error
	)
	if c.path != nil {
		_, d, err = c.path.Read(uint64(c.rng.Int63n(int64(c.cfg.NumRows))))
	} else {
		d, err = c.raw.AODummy()
	}
	r.stats.ReadTime += d
	if err != nil {
		return err
	}
	d, err = c.buf.LoadDummy()
	r.stats.ReadTime += d
	return err
}

// ServeEntry serves a client's download request (step ④). ok reports
// whether the entry was read this round; rows sacrificed by the ε-FDP
// mechanism (k < k_union) return ok = false, and the caller applies its
// lost-entry policy (our FL layer, like the paper's prototype, drops the
// affected training samples).
func (r *Round) ServeEntry(row uint64) (entry []float32, ok bool, err error) {
	if r.er != nil {
		// Sharded: the engine routes to the owning shard; rows on
		// different shards are served concurrently.
		entry, ok, err := r.er.ServeEntry(row)
		if errors.Is(err, shard.ErrRoundFinished) {
			err = ErrRoundFinished
		}
		return entry, ok, err
	}
	if r.stream != nil {
		// Lookahead pipeline: block until the fetcher has loaded this row
		// (rows outside the staged plan — sacrificed by the mechanism —
		// pass straight through to the usual miss path below).
		if err := r.stream.waitFor(row); err != nil {
			return nil, false, err
		}
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.done {
		return nil, false, ErrRoundFinished
	}
	entry, d, err := r.c.buf.Serve(row)
	r.stats.ServeTime += d
	if errors.Is(err, bufferoram.ErrNotLoaded) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
}

// SubmitGradient folds one client's gradient for a row into the round's
// aggregate (step ⑥). delivered is false when the row was not resident
// (the gradient is dropped, matching a lost entry).
func (r *Round) SubmitGradient(row uint64, grad []float32, nSamples int) (delivered bool, err error) {
	if r.er != nil {
		delivered, err = r.er.SubmitGradient(row, grad, nSamples)
		if errors.Is(err, shard.ErrRoundFinished) {
			err = ErrRoundFinished
		}
		return delivered, err
	}
	if r.stream != nil {
		// Defensive: gradients normally follow a serve (so the row is
		// loaded), but an out-of-order caller must not see a transient
		// miss for a row the fetcher is still loading.
		if err := r.stream.waitFor(row); err != nil {
			return false, err
		}
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.done {
		return false, ErrRoundFinished
	}
	d, err := r.c.buf.Aggregate(row, grad, nSamples)
	r.stats.AggregateTime += d
	if errors.Is(err, bufferoram.ErrNotLoaded) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// SubmitAggregate folds an already-aggregated multi-client contribution
// for a row into the round's buffer: sum is Σ_c n_c·Δθ_c and count is
// Σ_c n_c over the contributing clients. This is the upload plane's
// entry point (internal/wire): the per-client FedAvg pre-weighting
// happened client-side before masking, so the buffer's aggregator Pre
// is bypassed — only the Post division by the total count runs at
// Finish. delivered is false when the row was not resident.
func (r *Round) SubmitAggregate(row uint64, sum []float32, count float32) (delivered bool, err error) {
	if r.er != nil {
		delivered, err = r.er.SubmitAggregate(row, sum, count)
		if errors.Is(err, shard.ErrRoundFinished) {
			err = ErrRoundFinished
		}
		return delivered, err
	}
	if r.stream != nil {
		if err := r.stream.waitFor(row); err != nil {
			return false, err
		}
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.done {
		return false, ErrRoundFinished
	}
	d, err := r.c.buf.AggregateRaw(row, sum, count)
	r.stats.AggregateTime += d
	if errors.Is(err, bufferoram.ErrNotLoaded) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Finish applies aggregated updates back to the main ORAM (step ⑦) and
// closes the round.
func (r *Round) Finish() (RoundStats, error) {
	if r.er != nil {
		st, err := r.er.Finish()
		if errors.Is(err, shard.ErrRoundFinished) {
			err = ErrRoundFinished
		}
		r.c.mu.Lock()
		r.c.inRound = false
		r.c.kickStageLocked()
		r.c.mu.Unlock()
		return st, err
	}
	if r.stream != nil {
		// Wait out the fetcher: even rows no client consumed must be
		// resident before the buffer unloads below (every planned row
		// moves back, served or not — the adversary-visible counts do not
		// depend on client behaviour).
		if err := r.stream.wait(); err != nil {
			r.c.mu.Lock()
			st := r.stats
			r.done = true
			r.c.inRound = false
			r.c.cur = nil
			r.c.mu.Unlock()
			return st, err
		}
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.done {
		return r.stats, ErrRoundFinished
	}
	c := r.c
	wallStart := time.Now()
	// Deterministic write-back order: map iteration would randomize the
	// ORAM state evolution run-to-run, breaking bit-identical snapshots
	// (all k rows move either way, so the order leaks nothing new).
	rows := make([]uint64, 0, len(r.loaded))
	for row := range r.loaded {
		rows = append(rows, row)
	}
	slices.Sort(rows)

	if r.stream != nil {
		// Deferred eviction: unload the buffer now (slot recycling and the
		// aggregator's Post step must run before the next round's loads)
		// but capture the main-ORAM write-backs as a pending pass. The
		// NEXT round's fetcher drains it before its own reads, keeping the
		// main ORAM's op order identical to sync mode while moving the
		// write-back wall off this round's critical path.
		p := &evictPass{entries: make([][]float32, len(rows)), rows: rows, dummy: r.stats.Dummy}
		for i, row := range rows {
			entry, d, err := c.buf.Unload(row)
			r.stats.UpdateTime += d
			if err != nil {
				return r.stats, err
			}
			p.entries[i] = entry
		}
		for i := 0; i < r.stats.Dummy; i++ {
			d, err := c.buf.UnloadDummy()
			r.stats.UpdateTime += d
			if err != nil {
				return r.stats, err
			}
		}
		c.pending = p
		st := r.stream
		st.mu.Lock()
		r.stats.PrefetchHits = uint64(len(st.served))
		r.stats.PrefetchWasted = uint64(len(st.will) - len(st.served))
		r.stats.ReadWallTime = st.blockedWall
		st.mu.Unlock()
		c.prefetchHits += r.stats.PrefetchHits
		c.prefetchWasted += r.stats.PrefetchWasted
	} else {
		for _, row := range rows {
			d, err := c.buf.UnloadTo(row, c.rowFloats)
			r.stats.UpdateTime += d
			if err != nil {
				return r.stats, err
			}
			wd, err := c.writeBackRow(row, c.rowFloats)
			r.stats.UpdateTime += wd
			if err != nil {
				return r.stats, err
			}
		}
		// Dummy write-backs keep the outbound access count at k (the
		// adversary sees k entries move in each direction, Sec 4.3).
		for i := 0; i < r.stats.Dummy; i++ {
			d, err := c.writeBackDummy()
			r.stats.UpdateTime += d
			if err != nil {
				return r.stats, err
			}
			d, err = c.buf.UnloadDummy()
			r.stats.UpdateTime += d
			if err != nil {
				return r.stats, err
			}
		}
	}
	r.stats.FinishWallTime = time.Since(wallStart)
	r.done = true
	c.inRound = false
	c.cur = nil
	c.kickStageLocked()
	return r.stats, nil
}

// ---- Batched round operations ---------------------------------------
//
// Remote clients touch many rows per round; serving them one HTTP
// request at a time pays the wire overhead K times. The batch entry
// points below amortize it: one call serves (or aggregates) a whole
// working set, and on a sharded controller the rows fan out across the
// per-shard pipelines concurrently.

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
// requested row, in request order. On a sharded controller rows owned by
// different shards are served in parallel; monolithic controllers serve
// sequentially (the controller mutex would serialize the goroutines
// anyway). Duplicate rows are allowed and served independently.
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

// fanOut runs fn over [0, n): sequentially on a monolithic controller;
// on a sharded one the indices are grouped by the shard that owns
// rowOf(i) and each group runs on its own goroutine (a bounded pool), in
// request order. One shard's ORAMs therefore see a batch's rows in the
// same order whatever the scheduler does — dispatching per row let two
// rows of one shard race, and the shard's state bytes with them. Every
// index runs; the lowest-index error wins, so failures are deterministic
// too.
func (r *Round) fanOut(n int, rowOf func(i int) uint64, fn func(i int) error) error {
	if r.er == nil || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	groups := make([][]int, r.c.cfg.Shards)
	for i := 0; i < n; i++ {
		si := 0 // out-of-range rows fail in fn; any group will do
		if row := rowOf(i); row < r.c.cfg.NumRows {
			si = r.c.eng.ShardOf(row)
		}
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
