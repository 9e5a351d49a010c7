package cluster

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

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

// WAL frame names. Each payload begins with a version byte and the
// round; a batch frame's then holds the batch as one api row frame
// (gradients or aggregates, global rows).
const (
	walBeginFrame   = "cluster/begin"
	walBatchFrame   = "cluster/batch"
	walAppliedFrame = "cluster/applied"
	walCommitFrame  = "cluster/commit"

	walFrameVersion = 1
)

// loggedOp is one replayable batch within a round.
type loggedOp struct {
	batch api.RowFrame
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

// logBatch appends one gradient or aggregate batch and returns the
// op's index within the round (the key its applied frame carries), or
// -1 when nothing was logged (no WAL, or replay).
func (c *Coordinator) logBatch(seq uint64, f api.RowFrame) (op int, err error) {
	if c.wal == nil || c.replaying.Load() {
		return -1, nil
	}
	if err := c.walRefused(); err != nil {
		return -1, err
	}
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	payload, err := api.AppendRowFrame(e.Finish(), f)
	if err != nil {
		return -1, fmt.Errorf("cluster: WAL batch round %d: %w", seq, err)
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.AppendRaw(walBatchFrame, payload); err != nil {
		return -1, fmt.Errorf("cluster: WAL batch round %d: %w", seq, err)
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
			// Each request list takes at least its 8-byte length: a count
			// beyond that is corrupt and must not size an allocation.
			nreq := int(d.U32())
			if nreq > d.Remaining()/8 {
				return nil, torn, fmt.Errorf("cluster: WAL begin frame: %d request lists in %d bytes", nreq, d.Remaining())
			}
			reqs := make([][]uint64, 0, nreq)
			for i := 0; i < nreq; i++ {
				reqs = append(reqs, d.U64s())
			}
			if derr := d.Err(); derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL begin frame: %w", derr)
			}
			rounds = append(rounds, loggedRound{seq: seq, requests: reqs})
			cur = &rounds[len(rounds)-1]
		case walBatchFrame:
			// The rest of the payload is the row frame (a truncated
			// header leaves too few bytes to be one).
			f, derr := api.DecodeRowFrame(rec.Payload[len(rec.Payload)-d.Remaining():])
			if derr == nil && f.Kind == api.FrameEntries {
				derr = errors.New("an entries frame is not a batch")
			}
			if derr != nil {
				return nil, torn, fmt.Errorf("cluster: WAL batch frame: %w", derr)
			}
			if cur == nil || cur.seq != seq || cur.committed {
				return nil, torn, fmt.Errorf("cluster: WAL batch frame for round %d outside its round", seq)
			}
			cur.ops = append(cur.ops, loggedOp{batch: f})
		case walAppliedFrame:
			op := int(d.U32())
			n := int(d.U32()) // one byte per flag, bounded like nreq
			if n > d.Remaining() {
				return nil, torn, fmt.Errorf("cluster: WAL applied frame: %d flags in %d bytes", n, d.Remaining())
			}
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
			// An unknown frame — from a future version, or a retired one
			// (cluster/grads, cluster/aggs: batches before they were row
			// frames): fail loudly rather than replay a subset of the log.
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
// written and the WAL cut, so the next crash replays only its own
// rounds. Returns the number of rounds redriven. No-op without a
// Manager; a checkpoint save in flight finishes first.
func (c *Coordinator) Recover() (replayed int, err error) {
	if c.mgr == nil {
		return 0, nil
	}
	c.WaitSaved()
	blob, epoch, _, err := c.mgr.LoadSection(persist.ControllerSection)
	fresh := errors.Is(err, persist.ErrNoCheckpoint)
	if err != nil && !fresh {
		return 0, fmt.Errorf("cluster: recover: %w", err)
	}
	if !fresh {
		if err := c.Restore(blob); err != nil {
			return 0, fmt.Errorf("cluster: recover: restore checkpoint epoch %d: %w", epoch, err)
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
		if f := c.delivered(op.batch, op.applied); f.Len() > 0 {
			if _, err := r.(*Round).submit("replay batch", f); err != nil {
				return err
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

// delivered filters a logged batch to rows whose owning node applied
// it pre-crash (nil applied = no filter). A row outside the table is
// kept, for submit to refuse.
func (c *Coordinator) delivered(f api.RowFrame, applied []bool) api.RowFrame {
	if applied == nil {
		return f
	}
	var idx []int
	for i := 0; i < f.Len(); i++ {
		row, _ := f.Record(i)
		if row >= c.numRows {
			idx = append(idx, i)
		} else if n := c.ownerOf(row); n < len(applied) && applied[n] {
			idx = append(idx, i)
		}
	}
	return f.Select(idx, 0)
}

// checkpointSave is the coordinator's checkpoint for the Manager's
// background saver. Its Take marks the WAL's end and opens every
// shard's section on its member, the part a round waits for: each
// member has encoded its section once it answers with headers. The
// saver streams the sections from the open replies into the checkpoint
// file, renames it into place under the epoch fence, then runs the
// after-save hook: release the replies, record the newest durable
// checkpoint for /cluster/status, cut the WAL at the mark (fenced too)
// and pass the outcome to saved (nil = none).
func (c *Coordinator) checkpointSave(saved func(error)) persist.Save {
	var s *sections
	return persist.Save{
		Take: func() (func() (*persist.Checkpoint, error), error) {
			c.walMu.Lock()
			var err error
			c.walMark, err = c.wal.Mark()
			c.walMu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("cluster: mark round WAL: %w", err)
			}
			if s, err = c.openSections(); err != nil {
				return nil, err
			}
			return func() (*persist.Checkpoint, error) {
				cp := persist.NewCheckpoint()
				cp.PutStream(persist.ControllerSection, fedora.SnapshotSize(c.norm, s.sizes), func(w io.Writer) error { return c.writeSnapshot(w, s) })
				return cp, nil
			}, nil
		},
		Guard: func(rename func() error) error { return c.fenced("rename", rename) },
		Saved: func(_ uint64, err error) {
			s.close()
			if err == nil {
				c.recordCheckpoint(s.round, nil)
				err = c.resetWAL()
			}
			if err != nil {
				c.recordCheckpoint(0, err)
			}
			if saved != nil {
				saved(err)
			}
		},
	}
}

// checkpointNow saves a cluster checkpoint as the next epoch (pruning
// to 3) and cuts the round WAL, through the background saver, and
// waits for it. Caller must have no round in flight. The outcome is
// kept for /cluster/status.
func (c *Coordinator) checkpointNow() error {
	done := make(chan error, 1)
	if err := c.mgr.Start(c.checkpointSave(func(err error) { done <- err })); err != nil {
		c.recordCheckpoint(0, err)
		return err
	}
	return <-done
}

// Checkpoint is checkpointNow for callers outside the round cadence,
// such as a clean shutdown: it saves the next checkpoint epoch, cuts
// the round WAL and records the outcome for /cluster/status, and
// returns once all of that is done. It returns fedora.ErrRoundOpen
// while a round is in flight and requires a Manager.
func (c *Coordinator) Checkpoint() error { return c.checkpointNow() }

// WaitSaved blocks until the checkpoint save in flight, if any, has
// finished, its WAL cut included (a no-op without a Manager).
func (c *Coordinator) WaitSaved() {
	if c.mgr != nil {
		c.mgr.Wait()
	}
}

// resetWAL drops the WAL frames the newest checkpoint holds — those
// before the mark its snapshot took — and keeps the rounds logged
// since, which that checkpoint does not hold. Like the checkpoint
// rename, it runs only while this coordinator still owns the directory.
func (c *Coordinator) resetWAL() error {
	return c.fenced("WAL cut", func() error {
		c.walMu.Lock()
		defer c.walMu.Unlock()
		return c.wal.Cut(c.walMark)
	})
}

// fenced runs step — a checkpoint rename or a WAL cut in the shared
// directory — under the flock that serializes epoch claims, and only
// while this coordinator owns the directory: it is not deposed, and the
// persisted coordinator epoch is not above its own. Otherwise a
// successor has claimed the directory, and the step would overwrite its
// checkpoint or wipe the rounds it logged; the refusal is returned and
// recorded for /cluster/status.
func (c *Coordinator) fenced(step string, do func() error) error {
	if c.savePoint != nil {
		if err := c.savePoint(step); err != nil {
			return err
		}
	}
	dir := c.mgr.Dir()
	release, err := persist.LockFile(filepath.Join(dir, epochLockName))
	if err != nil {
		return fmt.Errorf("cluster: %s: lock epoch file: %w", step, err)
	}
	defer release()
	own := c.epoch.Load()
	cur, err := readEpochFile(dir)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", step, err)
	}
	if c.deposed.Load() || cur > own {
		err := fmt.Errorf("cluster: %s refused: coordinator epoch %d, directory epoch %d, deposed %v: %w",
			step, own, cur, c.deposed.Load(), api.ErrStaleEpoch)
		c.recordCheckpoint(0, err)
		return err
	}
	return do()
}

// recordCheckpoint keeps a checkpoint's outcome for /cluster/status:
// round is the one a durable checkpoint sealed (err nil), or err says
// why the latest attempt failed — whichever caller asked.
func (c *Coordinator) recordCheckpoint(round uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.lastCkptErr = err.Error()
		return
	}
	c.lastCkptRound, c.lastCkptErr = round, ""
}

// maybeMaintain runs the post-round rule, api.AfterRound, at cluster
// scope with checkpointSave: on the healthy checkpoint cadence, take the
// snapshot and leave the save and the WAL cut to the background saver;
// while degraded, migrate shards from the newest checkpoint. It is
// skipped during replay. Maintenance failures never fail the round — it
// already succeeded, and the next finish retries; durability degrades
// to a longer replay, never to failed training — but a failed
// checkpoint is not silent: it stays in /cluster/status.
func (c *Coordinator) maybeMaintain(seq uint64) {
	if c.mgr == nil || c.replaying.Load() {
		return
	}
	if op, err := api.AfterRound(c, c.mgr, c.ckptEvery, seq, c.checkpointSave(nil)); op == api.UpkeepCheckpoint && err != nil {
		c.recordCheckpoint(0, err)
	}
}
