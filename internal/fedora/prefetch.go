package fedora

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync"
	"time"
)

// Lookahead prefetch pipeline (ROADMAP item 3, after LAORAM).
//
// The FL orchestrator knows round R+1's client sample before round R
// finishes training, so the round lifecycle has a two-phase form:
//
//	StageRound(requests)   — post R+1's request lists; as soon as the
//	                         current round finishes, the staged begin
//	                         runs the plan (union, ε-FDP sampling,
//	                         selection) and the fetch pass (main-ORAM →
//	                         buffer-ORAM) on one goroutine, concurrent
//	                         with the caller's compute.
//	BeginRound(requests)   — with the SAME lists: adopts the staged
//	                         round once its begin has finished.
//
// A staged round defers its eviction symmetrically: Finish unloads the
// buffer into the pipeline's evict pass, and the NEXT round's fetch pass
// writes it back before its reads. Both ORAMs therefore execute exactly
// the op sequence of an unstaged run — same accesses, same order, same
// RNG draws — which is what keeps state bytes and model fingerprints
// bit-identical and the obliviousness/ε arguments unchanged (see
// ARCHITECTURE §15 for the leakage analysis).
//
// Single-phase callers need no changes: BeginRound without a prior
// StageRound runs the same begin inline, and Finish writes back inline.

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

// evictPass is a finished round's write-back pass: the rows Finish
// unloaded from the buffer ORAM, ascending, their updated entries back to
// back (len(rows)·Dim floats), and the dummy count. live is set between
// Finish filling it and applyEvict writing it back; the slices are kept
// for their capacity, so a warmed-up round allocates nothing here.
type evictPass struct {
	rows    []uint64
	entries []float32
	dummy   int
	live    bool
}

// An unstaged Finish streams its write-back beside the unloads only for
// a pass of at least minStreamRows rows, handing them over in
// evictChunks pieces: below that the hand-offs cost more than the overlap
// saves (train_local's ~600-row passes ran ~4 % slower streamed on 2
// vCPUs, oram_serve's ~2 000-row ones faster).
const (
	minStreamRows = 1024
	evictChunks   = 16
)

// evictStream carries an unstaged Finish's write-back pass on a
// goroutine of its own, beside the buffer ORAM's unloads (see
// pipelineRound.Finish): Finish sends ready the number of rows unloaded
// so far at each chunk boundary, then len(rows) — or −1 once an unload
// failed — and run writes each chunk back as it arrives, then the
// dummies, leaving the modelled time in d and the first failure in err.
// The channel, buffered for every send of a round, and run, bound once
// in newPipeline, are reused round after round.
type evictStream struct {
	ready chan int
	run   func()
	wg    sync.WaitGroup
	d     time.Duration
	err   error
}

// streamEvict is evictStream.run.
func (p *pipeline) streamEvict() {
	s := &p.stream
	defer s.wg.Done()
	s.d, s.err = 0, nil
	rows := len(p.evict.rows)
	for written := 0; ; {
		hi := <-s.ready
		if hi < 0 {
			return
		}
		if s.err == nil {
			var d time.Duration
			d, s.err = p.writeRows(written, hi)
			s.d += d
			written = hi
		}
		if hi == rows {
			break
		}
	}
	if s.err == nil {
		var d time.Duration
		d, s.err = p.writeDummies()
		s.d += d
	}
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

// openLocked reports whether a round holds controller state that a
// snapshot or restore must not split: one is open, or a staged begin
// has started (its plan consumes RNG state). A stage still queued is
// only request lists. The caller holds c.mu.
func (c *Controller) openLocked() bool {
	return c.inRound || c.staged != nil && c.staged.started
}

// requestsDigest fingerprints per-client request lists (FNV-1a over the
// list structure) so stage/begin and stage/stage pairs can be matched.
func requestsDigest(requests [][]uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
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
// round (if any) finishes — or, on pathoram+, inline in the adopting
// BeginRound (see kickStageLocked). Re-staging the identical lists is an
// idempotent no-op; different lists while a stage is pending fail with
// ErrStageMismatch. Single-phase and two-phase callers compose on any
// controller.
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
	if _, err := c.cfg.checkRequests(requests); err != nil {
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

// kickStageLocked starts the staged begin — plan and fetch pass — on a
// background goroutine if a stage is pending and the controller is idle
// and not in a finish's upkeep. Called with c.mu held, from StageRound
// and from Finish. On pathoram+, which draws its RNG at access time, the
// stage stays queued and the adopting BeginRound runs it inline.
func (c *Controller) kickStageLocked() {
	s := c.staged
	if s == nil || s.started || c.inRound || c.upkeep || c.cfg.Backend == BackendPathORAMPlus {
		return
	}
	s.started = true
	go func() {
		c.mu.Lock()
		s.round, s.err = c.beginRoundLocked(s.requests, true)
		c.mu.Unlock()
		close(s.done)
	}()
}

// applyEvict writes a deferred evict pass, if any, back to the main
// ORAM — every unloaded row in ascending order, then the dummies — and
// returns the modelled device time. An unstaged Finish writes its own
// pass (writeBack, or streamEvict beside its unloads); a staged round's
// waits for applyEvict at the head of the next round's fetch pass or at
// a drain point, in both cases before the next main-ORAM read. The
// caller holds p.mu.
func (p *pipeline) applyEvict() (time.Duration, error) {
	ev := &p.evict
	if !ev.live {
		return 0, nil
	}
	ev.live = false
	return p.writeBack()
}

// writeBack writes the whole evict pass back: rows, then dummies.
func (p *pipeline) writeBack() (time.Duration, error) {
	total, err := p.writeRows(0, len(p.evict.rows))
	if err != nil {
		return total, err
	}
	d, err := p.writeDummies()
	return total + d, err
}

// writeRows writes the evict pass's rows [from, to) back to the main
// ORAM in order and returns the modelled device time.
func (p *pipeline) writeRows(from, to int) (time.Duration, error) {
	var (
		total, d time.Duration
		err      error
	)
	ev := &p.evict
	dim := p.cfg.Dim
	for i := from; i < to; i++ {
		encodeF32s(p.rowBytes, ev.entries[i*dim:(i+1)*dim])
		if p.path != nil {
			d, err = p.path.Write(ev.rows[i], p.rowBytes)
		} else {
			d, err = p.raw.WriteBack(ev.rows[i], p.rowBytes) // ignored in phantom mode
		}
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writeDummies runs the evict pass's dummy write-backs and returns the
// modelled device time.
func (p *pipeline) writeDummies() (time.Duration, error) {
	var (
		total, d time.Duration
		err      error
	)
	for i := 0; i < p.evict.dummy; i++ {
		if p.path != nil {
			// Path ORAM+ has no write-back schedule; it burns an
			// indistinguishable read instead.
			_, d, err = p.path.Read(uint64(p.rng.Int63n(int64(p.cfg.NumRows))))
		} else {
			d, err = p.raw.WriteBackDummy()
		}
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// drain applies a deferred evict pass at the points that need the main
// ORAM caught up with the finished rounds: PeekRow, Snapshot and Close.
// The caller holds p.mu.
func (p *pipeline) drain() error {
	_, err := p.applyEvict()
	return err
}

// PrefetchReport is the controller's lifetime prefetch observability
// snapshot, for in-process callers only: Hits + Wasted is the number of
// real rows loaded (k_sampled − dummy), so no served surface carries it.
type PrefetchReport struct {
	// Hits / Wasted count staged rows that were / were never served,
	// accumulated over all finished staged rounds.
	Hits   uint64
	Wasted uint64
}

// PrefetchReport returns the controller's prefetch counters, summed over
// shards.
func (c *Controller) PrefetchReport() PrefetchReport {
	var rep PrefetchReport
	for _, p := range c.parts {
		p.mu.Lock()
		rep.Hits += p.prefetchHits
		rep.Wasted += p.prefetchWasted
		p.mu.Unlock()
	}
	return rep
}
