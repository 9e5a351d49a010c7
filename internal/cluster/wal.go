package cluster

import (
	"errors"
	"fmt"

	"repro/internal/api"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
)

// The coordinator's durability plane, the cluster-level lift of PR 2's
// single-process story: every round's INPUTS (begin request lists,
// gradient batches, aggregate batches) are appended to a CRC-framed,
// fsynced WAL before any member observes them, and a commit frame seals
// the round once every surviving member finished it. Recover then
// reconstructs post-crash (or post-promotion) state by restoring the
// newest valid cluster checkpoint onto the members and REDRIVING the
// committed rounds after it through the normal fan-out — the same
// deterministic path that produced them, which is what keeps the
// recovered model fingerprint bit-identical to an uninterrupted run. A
// round without a commit frame is torn: the crash interrupted it
// mid-fan-out, the trainer never saw it succeed, and replay discards it
// (the checkpoint restore wipes whatever half of it reached members).
//
// Degraded rounds: a batch is logged BEFORE fan-out, but delivery can
// partially fail — a member fenced mid-round reports its rows
// delivered=false while the round still commits over the survivors.
// After each fan-out an applied frame records which nodes the batch
// actually landed on, and replay filters each batch to those nodes: a
// gradient the trainer saw bounce (and will resubmit in a later round)
// must not land on the restored member during replay, or the
// resubmission would apply it a second time. This keeps the
// bit-identical guarantee for degraded histories too.
//
// Ordering assumption: frames replay in append order, so recovery is
// exact for the repo's trainers, which drive rounds sequentially
// (fl.Runner, fedora-train, the upload plane's per-round unmask). If
// several uploaders raced within one round, replay preserves the order
// the coordinator serialized them in the WAL — a valid interleaving,
// but not necessarily the one the members originally executed; such
// deployments should checkpoint every round.

// CheckpointSection is the checkpoint section the coordinator's
// assembled snapshot is stored under — the same name the
// single-process serving layer uses, so one checkpoint directory (and
// one set of tools) serves both.
const CheckpointSection = "fedora/controller"

// WAL frame names. Each payload begins with a version byte.
const (
	walBeginFrame   = "cluster/begin"
	walGradsFrame   = "cluster/grads"
	walAggsFrame    = "cluster/aggs"
	walAppliedFrame = "cluster/applied"
	walCommitFrame  = "cluster/commit"

	walFrameVersion = 1
)

// loggedOp is one replayable mutation within a round.
type loggedOp struct {
	grads []fedora.RowGradient // nil for an aggregate op
	aggs  []fedora.RowAggregate
	// applied is the per-node delivery outcome of the fan-out (the
	// round's applied frame): replay resubmits only rows owned by nodes
	// that applied the batch pre-crash. nil (no applied frame — a crash
	// between the op and its ack in an uncommitted round, or a log from
	// before applied frames existed) means no filtering.
	applied []bool
}

// loggedRound is one round reconstructed from the WAL.
type loggedRound struct {
	seq       uint64
	requests  [][]uint64
	ops       []loggedOp
	committed bool
}

// walRefused rejects WAL writes from a deposed coordinator: the
// successor now owns the shared log (promotion reset it), and a stale
// incarnation's frames interleaving with the successor's would corrupt
// the next recovery. The first stale round can still land one begin
// frame before the deposed latch trips — that frame is uncommitted and
// replay discards it.
func (c *Coordinator) walRefused() error {
	if c.deposed.Load() {
		return fmt.Errorf("cluster: deposed coordinator must not write the shared WAL: %w", api.ErrStaleEpoch)
	}
	return nil
}

// logBegin appends the round's request lists. No-op without a WAL or
// during replay (replay re-enters BeginRound; re-logging would double
// the log). An append failure fails the round: a coordinator that
// cannot persist must not promise durability it does not have.
func (c *Coordinator) logBegin(seq uint64, requests [][]uint64) error {
	if c.wal == nil || c.replaying.Load() {
		return nil
	}
	if err := c.walRefused(); err != nil {
		return err
	}
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	e.U32(uint32(len(requests)))
	for _, req := range requests {
		e.U64s(req)
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	c.walOps = 0
	if err := c.wal.AppendRaw(walBeginFrame, e.Finish()); err != nil {
		return fmt.Errorf("cluster: WAL begin round %d: %w", seq, err)
	}
	return nil
}

// logGrads appends one gradient batch and returns the op's index within
// the round (the key its applied frame carries), or -1 when nothing was
// logged (no WAL, or replay).
func (c *Coordinator) logGrads(seq uint64, grads []fedora.RowGradient) (op int, err error) {
	if c.wal == nil || c.replaying.Load() {
		return -1, nil
	}
	if err := c.walRefused(); err != nil {
		return -1, err
	}
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	e.U32(uint32(len(grads)))
	for _, g := range grads {
		e.U64(g.Row)
		e.F32s(g.Grad)
		e.I64(int64(g.Samples))
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.AppendRaw(walGradsFrame, e.Finish()); err != nil {
		return -1, fmt.Errorf("cluster: WAL gradients round %d: %w", seq, err)
	}
	op = c.walOps
	c.walOps++
	return op, nil
}

// logAggs appends one aggregate batch; index contract as logGrads.
func (c *Coordinator) logAggs(seq uint64, aggs []fedora.RowAggregate) (op int, err error) {
	if c.wal == nil || c.replaying.Load() {
		return -1, nil
	}
	if err := c.walRefused(); err != nil {
		return -1, err
	}
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	e.U32(uint32(len(aggs)))
	for _, a := range aggs {
		e.U64(a.Row)
		e.F32s(a.Sum)
		e.F32(a.Count)
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.AppendRaw(walAggsFrame, e.Finish()); err != nil {
		return -1, fmt.Errorf("cluster: WAL aggregates round %d: %w", seq, err)
	}
	op = c.walOps
	c.walOps++
	return op, nil
}

// logApplied records op's per-node delivery outcome after its fan-out
// completed: applied[n] is true iff node n acknowledged the batch.
// Replay uses it to resubmit only what landed pre-crash. No-op when the
// op was never logged (op < 0).
func (c *Coordinator) logApplied(seq uint64, op int, applied []bool) error {
	if c.wal == nil || c.replaying.Load() || op < 0 {
		return nil
	}
	if err := c.walRefused(); err != nil {
		return err
	}
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	e.U32(uint32(op))
	e.U32(uint32(len(applied)))
	for _, a := range applied {
		e.Bool(a)
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.AppendRaw(walAppliedFrame, e.Finish()); err != nil {
		return fmt.Errorf("cluster: WAL applied round %d op %d: %w", seq, op, err)
	}
	return nil
}

// logCommit seals the round.
func (c *Coordinator) logCommit(seq uint64) error {
	if c.wal == nil || c.replaying.Load() {
		return nil
	}
	if err := c.walRefused(); err != nil {
		return err
	}
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.AppendRaw(walCommitFrame, e.Finish()); err != nil {
		return fmt.Errorf("cluster: WAL commit round %d: %w", seq, err)
	}
	return nil
}

// readRoundLog parses the round WAL into rounds. torn reports a
// truncated tail (the crash interrupted an append) — the frames before
// it are intact (CRC-checked) and still replay. An uncommitted trailing
// round is returned with committed=false; the caller discards it.
func readRoundLog(path string) (rounds []loggedRound, torn bool, err error) {
	records, torn, err := persist.ReadRawWALFile(path)
	if err != nil {
		return nil, torn, err
	}
	var cur *loggedRound
	for _, rec := range records {
		d := persist.NewDecoder(rec.Payload)
		if v := d.U8(); d.Err() == nil && v != walFrameVersion {
			return nil, torn, fmt.Errorf("cluster: WAL frame %q version %d unsupported", rec.Name, v)
		}
		seq := d.U64()
		switch rec.Name {
		case walBeginFrame:
			nreq := int(d.U32())
			reqs := make([][]uint64, 0, nreq)
			for i := 0; i < nreq; i++ {
				reqs = append(reqs, d.U64s())
			}
			if derr := d.Err(); derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL begin frame: %w", derr)
			}
			rounds = append(rounds, loggedRound{seq: seq, requests: reqs})
			cur = &rounds[len(rounds)-1]
		case walGradsFrame:
			n := int(d.U32())
			grads := make([]fedora.RowGradient, 0, n)
			for i := 0; i < n; i++ {
				grads = append(grads, fedora.RowGradient{
					Row: d.U64(), Grad: d.F32s(), Samples: int(d.I64()),
				})
			}
			if derr := d.Err(); derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL gradients frame: %w", derr)
			}
			if cur == nil || cur.seq != seq || cur.committed {
				return nil, torn, fmt.Errorf("cluster: WAL gradients frame for round %d outside its round", seq)
			}
			cur.ops = append(cur.ops, loggedOp{grads: grads})
		case walAggsFrame:
			n := int(d.U32())
			aggs := make([]fedora.RowAggregate, 0, n)
			for i := 0; i < n; i++ {
				aggs = append(aggs, fedora.RowAggregate{
					Row: d.U64(), Sum: d.F32s(), Count: d.F32(),
				})
			}
			if derr := d.Err(); derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL aggregates frame: %w", derr)
			}
			if cur == nil || cur.seq != seq || cur.committed {
				return nil, torn, fmt.Errorf("cluster: WAL aggregates frame for round %d outside its round", seq)
			}
			cur.ops = append(cur.ops, loggedOp{aggs: aggs})
		case walAppliedFrame:
			op := int(d.U32())
			n := int(d.U32())
			applied := make([]bool, 0, n)
			for i := 0; i < n; i++ {
				applied = append(applied, d.Bool())
			}
			if derr := d.Err(); derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL applied frame: %w", derr)
			}
			if cur == nil || cur.seq != seq || cur.committed || op < 0 || op >= len(cur.ops) {
				return nil, torn, fmt.Errorf("cluster: WAL applied frame for round %d op %d outside its round", seq, op)
			}
			cur.ops[op].applied = applied
		case walCommitFrame:
			if derr := d.Err(); derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL commit frame: %w", derr)
			}
			if cur == nil || cur.seq != seq || cur.committed {
				return nil, torn, fmt.Errorf("cluster: WAL commit frame for round %d outside its round", seq)
			}
			cur.committed = true
		default:
			// An unknown frame from a future version: fail loudly rather
			// than silently replaying a subset of the log.
			return nil, torn, fmt.Errorf("cluster: unknown WAL frame %q", rec.Name)
		}
	}
	return rounds, torn, nil
}

// Recover rebuilds the members' state after a coordinator crash or a
// standby promotion: restore the newest valid cluster checkpoint onto
// every member (force-aborting their orphaned rounds and unfencing
// them), then redrive the WAL's committed rounds past the checkpoint
// through the normal fan-out. Torn WAL tails and uncommitted rounds are
// discarded. After any replay (or a torn tail) a fresh checkpoint is
// written and the WAL reset, so the next crash replays only its own
// rounds. Returns the number of rounds redriven. No-op without a
// Manager.
func (c *Coordinator) Recover() (replayed int, err error) {
	if c.mgr == nil {
		return 0, nil
	}
	cp, _, err := c.mgr.LoadLatest()
	fresh := errors.Is(err, persist.ErrNoCheckpoint)
	if err != nil && !fresh {
		return 0, fmt.Errorf("cluster: recover: %w", err)
	}
	if !fresh {
		blob, ok := cp.Get(CheckpointSection)
		if !ok {
			return 0, fmt.Errorf("cluster: recover: checkpoint epoch %d has no %q section", cp.Epoch, CheckpointSection)
		}
		if err := c.Restore(blob); err != nil {
			return 0, fmt.Errorf("cluster: recover: restore checkpoint epoch %d: %w", cp.Epoch, err)
		}
	}

	rounds, torn, err := readRoundLog(c.mgr.WALPath())
	if err != nil {
		return 0, fmt.Errorf("cluster: recover: %w", err)
	}
	c.replaying.Store(true)
	defer c.replaying.Store(false)
	for _, lr := range rounds {
		if !lr.committed || lr.seq <= c.Round() {
			// Uncommitted: torn mid-round, discard. seq ≤ round: already
			// inside the restored checkpoint.
			continue
		}
		if err := c.replayRound(lr); err != nil {
			return replayed, fmt.Errorf("cluster: recover: replay round %d: %w", lr.seq, err)
		}
		replayed++
	}
	if replayed > 0 || torn || len(rounds) > 0 {
		// Seal the recovered state so the WAL never replays twice.
		if err := c.checkpointNow(); err != nil {
			return replayed, fmt.Errorf("cluster: recover: checkpoint: %w", err)
		}
	}
	return replayed, nil
}

// replayRound redrives one committed round through the live fan-out.
// Each op is filtered to the rows its applied frame says landed
// pre-crash: a batch that bounced off a fenced member must not land on
// the restored member now — the trainer saw delivered=false and its
// resubmission is already in a later committed round.
func (c *Coordinator) replayRound(lr loggedRound) error {
	r, err := c.BeginRound(lr.requests)
	if err != nil {
		return err
	}
	if got := c.Round(); got != lr.seq {
		return fmt.Errorf("replay sequence skew: coordinator at round %d, WAL at %d", got, lr.seq)
	}
	for _, op := range lr.ops {
		if op.grads != nil {
			if grads := c.deliveredGrads(op.grads, op.applied); len(grads) > 0 {
				if _, err := r.(*Round).SubmitGradients(grads); err != nil {
					return err
				}
			}
		} else {
			if aggs := c.deliveredAggs(op.aggs, op.applied); len(aggs) > 0 {
				if _, err := r.(*Round).SubmitAggregates(aggs); err != nil {
					return err
				}
			}
		}
	}
	_, err = r.Finish()
	return err
}

// ownerOf maps a global row to the member index serving its shard.
func (c *Coordinator) ownerOf(row uint64) int {
	return c.nodeOf[shard.ShardOf(c.numRows, c.shards, row)]
}

// deliveredGrads filters a logged gradient batch to rows whose owning
// node applied it pre-crash (nil applied = no filter).
func (c *Coordinator) deliveredGrads(grads []fedora.RowGradient, applied []bool) []fedora.RowGradient {
	if applied == nil {
		return grads
	}
	out := make([]fedora.RowGradient, 0, len(grads))
	for _, g := range grads {
		if n := c.ownerOf(g.Row); n < len(applied) && applied[n] {
			out = append(out, g)
		}
	}
	return out
}

// deliveredAggs mirrors deliveredGrads for aggregate batches.
func (c *Coordinator) deliveredAggs(aggs []fedora.RowAggregate, applied []bool) []fedora.RowAggregate {
	if applied == nil {
		return aggs
	}
	out := make([]fedora.RowAggregate, 0, len(aggs))
	for _, a := range aggs {
		if n := c.ownerOf(a.Row); n < len(applied) && applied[n] {
			out = append(out, a)
		}
	}
	return out
}

// checkpointNow assembles a cluster snapshot, saves it as the next
// checkpoint epoch, prunes to 3, and resets the round WAL. Caller must
// have no round in flight. The outcome — the round sealed, or why not —
// is kept for /cluster/status whichever caller asked.
func (c *Coordinator) checkpointNow() error {
	err := c.checkpoint()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.lastCkptErr = err.Error()
		return err
	}
	c.lastCkptRound, c.lastCkptErr = c.round, ""
	return nil
}

// checkpoint is checkpointNow's work.
func (c *Coordinator) checkpoint() error {
	blob, err := c.Snapshot()
	if err != nil {
		return err
	}
	cp := persist.NewCheckpoint()
	cp.Put(CheckpointSection, blob)
	if _, err := c.mgr.SaveNext(cp, 3); err != nil {
		return err
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	return c.wal.Reset()
}

// maybeMaintain runs the post-round maintenance pass, mirroring the
// serving layer's WithAutoRecover but at cluster scope: on the healthy
// checkpoint cadence, checkpoint + reset the WAL; while degraded,
// attempt shard migration from the newest checkpoint. Maintenance
// failures never fail the round — it already succeeded, and the next
// finish retries; durability degrades to a longer replay, never to
// failed training — but a failed checkpoint is not silent:
// checkpointNow leaves it in /cluster/status.
func (c *Coordinator) maybeMaintain(seq uint64) {
	if c.mgr == nil || c.replaying.Load() {
		return
	}
	if c.Health().Status != shard.StatusHealthy {
		cp, _, err := c.mgr.LoadLatest()
		if err != nil {
			return
		}
		if blob, ok := cp.Get(CheckpointSection); ok {
			_, _ = c.RecoverQuarantined(blob)
		}
		return
	}
	if seq%uint64(c.ckptEvery) == 0 {
		_ = c.checkpointNow() // reported through Status, see above
	}
}
