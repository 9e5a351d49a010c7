package fl

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/persist"
)

// Runner wraps a Trainer with the durability subsystem: periodic full
// checkpoints (trainer + controller, one framed file) plus a round WAL.
//
// Write ordering per round:
//
//  1. the round executes (all its effects are in memory),
//  2. the WAL record (round, seed, client digest) is appended + fsynced,
//  3. every N rounds, a checkpoint is written atomically.
//
// A crash at any point recovers exactly: Resume loads the newest valid
// checkpoint (falling back across corrupt epochs) and re-executes the
// WAL rounds past it — round execution is seed-deterministic, so the
// replay reproduces the lost in-memory state bit-for-bit, and each
// replayed round is verified against the logged seed + client digest. A
// round that completed but crashed before its WAL append simply re-runs;
// a torn WAL tail is discarded the same way.
type Runner struct {
	t     *Trainer
	mgr   *persist.Manager
	wal   *persist.WAL
	every int
	epoch uint64 // newest checkpoint epoch on disk
}

// sectionTrainer names the trainer's checkpoint section; the controller
// is stored under persist.ControllerSection.
const sectionTrainer = "fl/trainer"

// ResumeReport describes what recovery did.
type ResumeReport struct {
	// RestoredEpoch is the checkpoint epoch recovery started from (0 =
	// no checkpoint, replay from a fresh trainer).
	RestoredEpoch uint64
	// RestoredRound is the round count the checkpoint held.
	RestoredRound int
	// ReplayedRounds is how many WAL rounds were re-executed.
	ReplayedRounds int
	// TornTail reports whether a torn WAL tail was discarded.
	TornTail bool
	// Skipped lists corrupt checkpoint epochs recovery fell back across.
	Skipped []error
}

// NewRunner opens (creating if needed) the checkpoint directory for a
// FRESH trainer. every is the checkpoint period in rounds (0 = only
// explicit Checkpoint calls). Call Resume before RunRound when the
// directory may hold prior state.
func NewRunner(t *Trainer, dir string, every int) (*Runner, error) {
	if t.Controller() == nil {
		return nil, errors.New("fl: durable runner requires an in-process controller (remote trainers cannot snapshot ORAM state)")
	}
	mgr, err := persist.OpenManager(dir)
	if err != nil {
		return nil, err
	}
	wal, err := persist.OpenWAL(mgr.WALPath())
	if err != nil {
		return nil, err
	}
	r := &Runner{t: t, mgr: mgr, wal: wal, every: every}
	if epochs, err := mgr.Epochs(); err == nil && len(epochs) > 0 {
		r.epoch = epochs[len(epochs)-1]
	}
	return r, nil
}

// Trainer exposes the wrapped trainer.
func (r *Runner) Trainer() *Trainer { return r.t }

// Dir returns the checkpoint directory.
func (r *Runner) Dir() string { return r.mgr.Dir() }

// Close closes the WAL. It does NOT checkpoint; call Checkpoint first
// for a clean shutdown snapshot.
func (r *Runner) Close() error { return r.wal.Close() }

// Resume restores the trainer from the newest valid checkpoint and
// re-executes any WAL rounds committed after it, verifying each replayed
// round against its logged seed and client digest. With no checkpoint on
// disk the trainer starts fresh and the whole WAL replays. The trainer
// must be newly constructed (same Config as the original run).
func (r *Runner) Resume() (*ResumeReport, error) {
	rep := &ResumeReport{}
	cp, skipped, err := r.mgr.LoadLatest()
	rep.Skipped = skipped
	switch {
	case errors.Is(err, persist.ErrNoCheckpoint):
		// Fresh trainer replays from round zero.
	case err != nil:
		return rep, err
	default:
		trainerBlob, err := cp.Section(sectionTrainer)
		if err != nil {
			return rep, err
		}
		ctrlBlob, err := cp.Section(persist.ControllerSection)
		if err != nil {
			return rep, err
		}
		if err := r.t.Restore(trainerBlob); err != nil {
			return rep, fmt.Errorf("fl: restore trainer from epoch %d: %w", cp.Epoch, err)
		}
		if err := r.t.Controller().Restore(ctrlBlob); err != nil {
			return rep, fmt.Errorf("fl: restore controller from epoch %d: %w", cp.Epoch, err)
		}
		r.epoch = cp.Epoch
		rep.RestoredEpoch = cp.Epoch
	}
	rep.RestoredRound = r.t.Rounds()

	records, torn, err := persist.ReadWALFile(r.mgr.WALPath())
	if err != nil {
		return rep, err
	}
	rep.TornTail = torn
	for _, rec := range records {
		if rec.Round <= uint64(r.t.Rounds()) {
			continue // already inside the checkpoint
		}
		if rec.Round != uint64(r.t.Rounds())+1 {
			return rep, fmt.Errorf("%w: WAL jumps to round %d with trainer at round %d",
				persist.ErrCorrupt, rec.Round, r.t.Rounds())
		}
		round, err := r.t.RunRound()
		if err != nil {
			return rep, fmt.Errorf("fl: replay round %d: %w", rec.Round, err)
		}
		if round.RoundSeed != rec.Seed || round.ClientDigest != rec.ClientDigest {
			return rep, fmt.Errorf("fl: replay of round %d diverged (seed %d/%d, digest %016x/%016x) — state or config does not match the original run",
				rec.Round, round.RoundSeed, rec.Seed, round.ClientDigest, rec.ClientDigest)
		}
		rep.ReplayedRounds++
	}
	return rep, nil
}

// RunRound executes one round and commits it to the WAL; every `every`
// rounds it also writes a checkpoint.
func (r *Runner) RunRound() (RoundReport, error) {
	rep, err := r.t.RunRound()
	if err != nil {
		return rep, err
	}
	rec := persist.RoundRecord{
		Round:        uint64(r.t.Rounds()),
		Epoch:        r.epoch,
		Seed:         rep.RoundSeed,
		ClientDigest: rep.ClientDigest,
	}
	// Crash point: round executed, WAL record not yet durable — recovery
	// must re-run the round from the previous checkpoint + WAL.
	fault.CrashPoint("runner.wal-append")
	if err := r.wal.Append(rec); err != nil {
		return rep, fmt.Errorf("fl: WAL append round %d: %w", rec.Round, err)
	}
	if r.every > 0 && r.t.Rounds()%r.every == 0 {
		if _, err := r.Checkpoint(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Run trains until the trainer has completed totalRounds rounds (so a
// resumed run continues where it left off) and evaluates.
func (r *Runner) Run(totalRounds int) (Result, error) {
	start := time.Now()
	res := Result{Workers: r.t.Workers()}
	for r.t.Rounds() < totalRounds {
		rep, err := r.RunRound()
		if err != nil {
			res.Rounds = r.t.Rounds()
			res.Elapsed = time.Since(start)
			return res, fmt.Errorf("round %d failed: %w", r.t.Rounds(), err)
		}
		res.WireBytes += rep.WireBytes
		res.Saturations += rep.Saturations
		// Stage the next round only after the WAL record (and any
		// checkpoint) for this one is durable — checkpoints must never
		// observe a staged plan.
		if r.t.Rounds() < totalRounds {
			r.t.stageNext()
		}
	}
	res.Rounds = r.t.Rounds()
	res.Elapsed = time.Since(start)
	return r.t.summarize(res)
}

// Checkpoint writes a full snapshot (trainer + controller) as the next
// epoch, atomically, then prunes old epochs (persist.Manager.SaveNext).
// Returns the new epoch.
func (r *Runner) Checkpoint() (uint64, error) {
	// Crash point: WAL is committed, checkpoint write about to start —
	// recovery falls back to the previous epoch and replays the WAL.
	fault.CrashPoint("runner.checkpoint")
	trainerBlob, err := r.t.Snapshot()
	if err != nil {
		return 0, fmt.Errorf("fl: snapshot trainer: %w", err)
	}
	ctrlBlob, err := r.t.Controller().Snapshot()
	if err != nil {
		return 0, fmt.Errorf("fl: snapshot controller: %w", err)
	}
	cp := persist.NewCheckpoint()
	cp.Put(sectionTrainer, trainerBlob)
	cp.Put(persist.ControllerSection, ctrlBlob)
	epoch, err := r.mgr.SaveNext(cp)
	if err != nil {
		return 0, fmt.Errorf("fl: save checkpoint: %w", err)
	}
	r.epoch = epoch
	return epoch, nil
}
