package fedora

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"
)

// Lookahead prefetch pipeline (ROADMAP item 3, after LAORAM).
//
// The FL orchestrator knows round R+1's client sample before round R
// finishes training, so with Config.Prefetch on the round lifecycle
// grows a two-phase contract:
//
//	StageRound(requests)   — post R+1's request lists; as soon as the
//	                         current round finishes, the plan (union,
//	                         ε-FDP sampling, selection) runs and a
//	                         background fetcher starts moving the
//	                         sampled paths main-ORAM → buffer-ORAM,
//	                         concurrent with the caller's compute.
//	BeginRound(requests)   — with the SAME lists: adopts the staged
//	                         round; serves then block per row only until
//	                         the fetcher has loaded it.
//
// Eviction is deferred symmetrically: Finish unloads the buffer but
// captures the main-ORAM write-backs as a pending pass that the NEXT
// round's fetcher drains before its reads. The main ORAM therefore
// executes exactly the op sequence of sync mode — same accesses, same
// order, same RNG draws — which is what keeps model fingerprints
// bit-identical and the obliviousness/ε arguments unchanged (see
// ARCHITECTURE §15 for the leakage analysis).
//
// Single-phase callers need no changes: BeginRound without a prior
// StageRound plans inline (cheap) and still gets the background fetcher
// and deferred eviction.

// ErrStageMismatch is returned when BeginRound (or a second StageRound)
// presents different request lists than the staged round: the staged
// plan has already consumed the sampling RNG stream, so it cannot be
// discarded without diverging from a cold run. Callers must begin what
// they staged, or AbortRound and restore.
var ErrStageMismatch = errors.New("fedora: staged round does not match the requests presented")

// fetchOp is one planned main-ORAM access: a real row read or an
// indistinguishable dummy.
type fetchOp struct {
	row   uint64
	dummy bool
}

// evictPass is a deferred write-back pass: the buffer-unloaded entries
// (and the dummy count) of a finished prefetch-mode round, waiting for
// the next round's fetcher — or a drain point — to apply them to the
// main ORAM.
type evictPass struct {
	rows    []uint64
	entries [][]float32
	dummy   int
}

// stagedRound is a posted-but-not-yet-adopted round. Once kicked
// (started=true) a goroutine runs the begin; done closes when round/err
// are valid.
type stagedRound struct {
	requests [][]uint64
	digest   uint64
	started  bool
	done     chan struct{}
	round    *Round
	err      error
}

// requestsDigest fingerprints per-client request lists (FNV-1a over the
// list structure) so stage/begin and stage/stage pairs can be matched.
func requestsDigest(requests [][]uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(requests)))
	for _, reqs := range requests {
		put(uint64(len(reqs)))
		for _, row := range reqs {
			put(row)
		}
	}
	return h.Sum64()
}

// StageRound posts the next round's per-client request lists — the
// first leg of the two-phase contract. It validates and returns
// immediately; the actual begin runs in the background once the current
// round (if any) finishes. Re-staging the identical lists is an
// idempotent no-op; different lists while a stage is pending fail with
// ErrStageMismatch. With Config.Prefetch off the stage is merely
// remembered and the adopting BeginRound runs it inline, so single-
// phase and two-phase callers compose on any controller.
func (c *Controller) StageRound(requests [][]uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := requestsDigest(requests)
	if s := c.staged; s != nil {
		select {
		case <-s.done:
			if s.err != nil {
				// The staged begin failed; clear it so the caller can
				// re-stage after recovering.
				c.staged = nil
				return s.err
			}
		default:
		}
		if c.staged != nil {
			if c.staged.digest == d {
				return nil
			}
			return ErrStageMismatch
		}
	}
	if _, err := c.flattenRequests(requests); err != nil {
		return err
	}
	// Deep-copy: the caller may reuse its slices before the background
	// begin consumes them.
	reqs := make([][]uint64, len(requests))
	for i, rs := range requests {
		reqs[i] = append([]uint64(nil), rs...)
	}
	c.staged = &stagedRound{requests: reqs, digest: d, done: make(chan struct{})}
	c.kickStageLocked()
	return nil
}

// kickStageLocked starts the staged round's begin on a background
// goroutine if one is pending and the controller is idle. Called with
// c.mu held, from StageRound and from Finish. With Prefetch off the
// stage stays queued — the adopting BeginRound runs it inline.
func (c *Controller) kickStageLocked() {
	s := c.staged
	if s == nil || s.started || c.inRound || !c.cfg.Prefetch {
		return
	}
	s.started = true
	go func() {
		c.mu.Lock()
		s.round, s.err = c.beginRoundLocked(s.requests)
		c.mu.Unlock()
		close(s.done)
	}()
}

// runFetcher is the round's background I/O goroutine: it drains the
// previous round's deferred write-back pass, then executes the planned
// main-ORAM reads chunk by chunk — one merged read per chunk, then the
// chunk's buffer loads — publishing each loaded row to the stream so
// blocked serves wake per row. It takes c.mu once for a chunk's read and
// once per load, so serves and aggregates interleave with the loads.
func (r *Round) runFetcher(plan [][]fetchOp, pending *evictPass) {
	c := r.c
	st := r.stream
	if pending != nil {
		evictStart := time.Now()
		if err := r.drainPending(pending); err != nil {
			st.finish(err)
			return
		}
		c.mu.Lock()
		r.stats.EvictWallTime = time.Since(evictStart)
		c.mu.Unlock()
	}
	fetchStart := time.Now()
	// locked runs one fetcher step under c.mu unless the round was closed
	// underneath it (AbortRound).
	locked := func(step func() error) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if r.done {
			return ErrRoundFinished
		}
		return step()
	}
	for _, ops := range plan {
		if err := locked(func() error { return r.readChunk(ops) }); err != nil {
			st.finish(err)
			return
		}
		for _, op := range ops {
			if err := locked(func() error { return r.loadOp(op) }); err != nil {
				st.finish(err)
				return
			}
			if !op.dummy {
				st.markReady(op.row)
			}
		}
	}
	c.mu.Lock()
	r.stats.PrefetchWallTime = time.Since(fetchStart)
	c.mu.Unlock()
	st.finish(nil)
}

// drainPending applies a claimed deferred write-back pass op by op,
// aborting if the round is closed underneath it (AbortRound).
func (r *Round) drainPending(p *evictPass) error {
	c := r.c
	for i, row := range p.rows {
		c.mu.Lock()
		if r.done {
			c.mu.Unlock()
			return ErrRoundFinished
		}
		d, err := c.writeBackRow(row, p.entries[i])
		r.stats.EvictTime += d
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	for i := 0; i < p.dummy; i++ {
		c.mu.Lock()
		if r.done {
			c.mu.Unlock()
			return ErrRoundFinished
		}
		d, err := c.writeBackDummy()
		r.stats.EvictTime += d
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// drainEvictLocked synchronously applies any pending deferred write-back
// pass. Called with c.mu held at the drain points that need the main
// ORAM caught up: PeekRow, Snapshot and Close.
func (c *Controller) drainEvictLocked() error {
	p := c.pending
	if p == nil {
		return nil
	}
	c.pending = nil
	for i, row := range p.rows {
		if _, err := c.writeBackRow(row, p.entries[i]); err != nil {
			return err
		}
	}
	for i := 0; i < p.dummy; i++ {
		if _, err := c.writeBackDummy(); err != nil {
			return err
		}
	}
	return nil
}

// writeBackRow is one main-ORAM write-back (c.mu held).
func (c *Controller) writeBackRow(row uint64, entry []float32) (time.Duration, error) {
	encodeF32s(c.rowBytes, entry)
	if c.path != nil {
		return c.path.Write(row, c.rowBytes)
	}
	return c.raw.WriteBack(row, c.rowBytes) // ignored in phantom mode
}

// writeBackDummy is one main-ORAM dummy write-back (c.mu held). Path
// ORAM+ has no write-back schedule; it burns an indistinguishable read
// instead, drawing the same RNG stream the sync path did.
func (c *Controller) writeBackDummy() (time.Duration, error) {
	if c.path != nil {
		_, d, err := c.path.Read(uint64(c.rng.Int63n(int64(c.cfg.NumRows))))
		return d, err
	}
	return c.raw.WriteBackDummy()
}

// streamState publishes the fetcher's progress to blocked serves: will
// is the planned row set, ready the loaded subset, served the rows some
// client consumed. blockedWall accumulates the union of intervals in
// which at least one serve was waiting — the round's true blocking read
// time (RoundStats.ReadWallTime in prefetch mode).
type streamState struct {
	mu           sync.Mutex
	cond         *sync.Cond
	will         map[uint64]bool
	ready        map[uint64]bool
	served       map[uint64]bool
	done         bool
	err          error
	waiters      int
	blockedSince time.Time
	blockedWall  time.Duration
}

func newStreamState(plan [][]fetchOp) *streamState {
	st := &streamState{
		will:   make(map[uint64]bool),
		ready:  make(map[uint64]bool),
		served: make(map[uint64]bool),
	}
	st.cond = sync.NewCond(&st.mu)
	for _, ops := range plan {
		for _, op := range ops {
			if !op.dummy {
				st.will[op.row] = true
			}
		}
	}
	return st
}

// waitFor blocks until row is loaded. Rows outside the plan return
// immediately (they take the buffer's miss path). Returns the fetcher's
// error if it failed.
func (st *streamState) waitFor(row uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.will[row] {
		st.served[row] = true
	}
	for st.will[row] && !st.ready[row] && !st.done && st.err == nil {
		if st.waiters == 0 {
			st.blockedSince = time.Now()
		}
		st.waiters++
		st.cond.Wait()
		st.waiters--
		if st.waiters == 0 {
			st.blockedWall += time.Since(st.blockedSince)
		}
	}
	return st.err
}

// markReady publishes one loaded row.
func (st *streamState) markReady(row uint64) {
	st.mu.Lock()
	st.ready[row] = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// finish marks the fetcher complete (err nil) or failed.
func (st *streamState) finish(err error) {
	st.mu.Lock()
	st.done = true
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// wait blocks until the fetcher has finished and returns its error.
func (st *streamState) wait() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.done {
		st.cond.Wait()
	}
	return st.err
}

// PrefetchReport is the controller's lifetime prefetch observability
// snapshot, surfaced on /metrics.
type PrefetchReport struct {
	// Hits / Wasted count staged rows that were / were never served,
	// accumulated over all finished prefetch rounds.
	Hits   uint64
	Wasted uint64
	// StagedRows is the current staging-buffer depth: rows the fetcher
	// has loaded that no client has consumed yet.
	StagedRows int
}

// PrefetchReport returns the controller's prefetch counters (summed over
// shards when sharded).
func (c *Controller) PrefetchReport() PrefetchReport {
	if c.eng != nil {
		var rep PrefetchReport
		for _, sub := range c.subs {
			r := sub.PrefetchReport()
			rep.Hits += r.Hits
			rep.Wasted += r.Wasted
			rep.StagedRows += r.StagedRows
		}
		return rep
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := PrefetchReport{Hits: c.prefetchHits, Wasted: c.prefetchWasted}
	if c.cur != nil && c.cur.stream != nil {
		st := c.cur.stream
		st.mu.Lock()
		for row := range st.ready {
			if !st.served[row] {
				rep.StagedRows++
			}
		}
		st.mu.Unlock()
	}
	return rep
}
