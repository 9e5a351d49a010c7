package fedora

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
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
//	                         ε-FDP sampling, selection) runs and the
//	                         round's fetch pass starts moving the
//	                         sampled paths main-ORAM → buffer-ORAM on
//	                         its own goroutine, concurrent with the
//	                         caller's compute.
//	BeginRound(requests)   — with the SAME lists: adopts the staged
//	                         round; serves then wait only for whatever
//	                         is left of the fetch pass.
//
// Eviction is deferred symmetrically: Finish unloads the buffer into the
// pipeline's evict pass, and the NEXT round's fetch pass writes it back
// before its reads. Both ORAMs therefore execute exactly the op sequence
// of sync mode — same accesses, same order, same RNG draws — which is
// what keeps state bytes and model fingerprints bit-identical and the
// obliviousness/ε arguments unchanged (see ARCHITECTURE §15 for the
// leakage analysis).
//
// Single-phase callers need no changes: BeginRound without a prior
// StageRound plans inline (cheap) and still gets the background fetch
// pass and deferred eviction.

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

// applyEvict writes the pending evict pass, if any, back to the main
// ORAM — every unloaded row in ascending order, then the dummies — and
// returns the modelled device time. It is the only main-ORAM writer, and
// runs at exactly one of three points, all before the next main-ORAM
// read: in Finish itself (sync), at the head of the next round's fetch
// pass (Config.Prefetch), or at a drain point. The caller holds p.mu.
func (p *pipeline) applyEvict() (time.Duration, error) {
	ev := &p.evict
	if !ev.live {
		return 0, nil
	}
	ev.live = false
	var (
		total, d time.Duration
		err      error
	)
	dim := p.cfg.Dim
	for i, row := range ev.rows {
		encodeF32s(p.rowBytes, ev.entries[i*dim:(i+1)*dim])
		if p.path != nil {
			d, err = p.path.Write(row, p.rowBytes)
		} else {
			d, err = p.raw.WriteBack(row, p.rowBytes) // ignored in phantom mode
		}
		total += d
		if err != nil {
			return total, err
		}
	}
	for i := 0; i < ev.dummy; i++ {
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
	// accumulated over all finished prefetch rounds.
	Hits   uint64
	Wasted uint64
	// StagedRows is the current staging-buffer depth: rows the open
	// round's fetch pass has loaded that no client has consumed yet.
	StagedRows int
}

// PrefetchReport returns the controller's prefetch counters, summed over
// shards. A shard whose fetch pass is running reports once it ends.
func (c *Controller) PrefetchReport() PrefetchReport {
	var rep PrefetchReport
	for _, p := range c.parts {
		p.mu.Lock()
		rep.Hits += p.prefetchHits
		rep.Wasted += p.prefetchWasted
		if p.cur != nil && p.cur.stats.Prefetched {
			for _, consumed := range p.cur.loaded {
				if !consumed {
					rep.StagedRows++
				}
			}
		}
		p.mu.Unlock()
	}
	return rep
}
