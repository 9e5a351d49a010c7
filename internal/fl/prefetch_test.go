package fl

import (
	"testing"
)

// TestPrefetchTrainingBitIdentity: the tentpole acceptance property at
// the training-loop level. With Config.Prefetch on, the trainer stages
// round R+1 (drawn from the same RNG position a cold draw would use) so
// the controller overlaps its ORAM I/O with compute — and the final
// model must be bit-identical to the unstaged run at every worker and
// shard count.
func TestPrefetchTrainingBitIdentity(t *testing.T) {
	ds := smallMovieLens()
	run := func(prefetch bool, workers, shards int) []float32 {
		tr := newTrainer(t, Config{
			Dataset: ds, Epsilon: 1, UsePrivate: true, Seed: 11,
			ClientsPerRound: 12, LocalEpochs: 1,
			Workers: workers, Shards: shards, Prefetch: prefetch,
		})
		if _, err := tr.Run(4); err != nil {
			t.Fatal(err)
		}
		return modelFingerprint(t, tr)
	}
	for _, tc := range []struct {
		name            string
		workers, shards int
	}{
		{"w1-mono", 1, 0},
		{"w4-mono", 4, 0},
		{"w4-s3", 4, 3},
		{"w8-s3", 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := run(false, tc.workers, tc.shards)
			on := run(true, tc.workers, tc.shards)
			if len(off) != len(on) {
				t.Fatalf("fingerprint lengths differ: %d vs %d", len(off), len(on))
			}
			for i := range off {
				if off[i] != on[i] {
					t.Fatalf("prefetch on/off diverge at %d: %v vs %v", i, on[i], off[i])
				}
			}
		})
	}
}

// TestPrefetchRoundReportsStats: staged rounds report the Prefetched
// flag and the staged-row hits, and the controller's lifetime report
// accumulates them across the loop.
func TestPrefetchRoundReportsStats(t *testing.T) {
	tr := newTrainer(t, Config{
		Epsilon: 1, UsePrivate: true, Seed: 12, Workers: 3, Prefetch: true,
	})
	if _, err := tr.Run(3); err != nil {
		t.Fatal(err)
	}
	tr.StageNext()
	rep, err := tr.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Prefetched {
		t.Errorf("round not marked Prefetched: %+v", rep.RoundStats)
	}
	if rep.PrefetchHits == 0 {
		t.Errorf("no prefetch hits recorded: %+v", rep.RoundStats)
	}
	if lifetime := tr.Controller().PrefetchReport(); lifetime.Hits <= rep.PrefetchHits {
		t.Errorf("lifetime hits %d do not accumulate past the last round's %d", lifetime.Hits, rep.PrefetchHits)
	}
}

// TestTrainerSnapshotRefusedMidStage: once stageNext has drawn round
// R+1, the trainer RNG is past the round boundary and a snapshot would
// not resume deterministically — Snapshot must refuse.
func TestTrainerSnapshotRefusedMidStage(t *testing.T) {
	tr := newTrainer(t, Config{
		Epsilon: 1, UsePrivate: true, Seed: 13, Prefetch: true,
	})
	if _, err := tr.RunRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Snapshot(); err != nil {
		t.Fatalf("snapshot between rounds: %v", err)
	}
	tr.stageNext()
	if _, err := tr.Snapshot(); err == nil {
		t.Fatal("snapshot with a staged plan pending succeeded")
	}
	// The staged plan is consumed by the next round, after which
	// snapshots work again.
	if _, err := tr.RunRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Snapshot(); err != nil {
		t.Fatalf("snapshot after staged round ran: %v", err)
	}
}

// TestPrefetchKillResumeMidStage: a crash AFTER round R's WAL record is
// durable but WHILE round R+1 is already staged (plan drawn, controller
// prefetching) must recover to the same model as an uninterrupted run —
// the staged state is memory-only by design, so recovery replays round
// R+1 cold from the WAL/checkpoint.
func TestPrefetchKillResumeMidStage(t *testing.T) {
	ds := smallMovieLens()
	cfg := durableCfg(ds)
	cfg.Prefetch = true
	const total, every = 6, 2

	newPrefetchTrainer := func() *Trainer {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Uninterrupted reference.
	ref := newPrefetchTrainer()
	rref, err := NewRunner(ref, t.TempDir(), every)
	if err != nil {
		t.Fatal(err)
	}
	defer rref.Close()
	if _, err := rref.Run(total); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ref)

	// Leg 1: three rounds (checkpoint at 2), then stage round 4 — the
	// trainer has drawn the plan and the controller's staged begin is
	// already reading — and crash.
	dir := t.TempDir()
	r1, err := NewRunner(newPrefetchTrainer(), dir, every)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	r1.Trainer().stageNext()
	// crash: runner abandoned mid-stage, no Close, no shutdown checkpoint.

	// Leg 2: resume must restore the round-2 checkpoint, replay round 3
	// from the WAL (cold — staged state died with the process), and
	// finish the run to the identical model.
	tr2 := newPrefetchTrainer()
	r2, err := NewRunner(tr2, dir, every)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep, err := r2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoredRound != 2 || rep.ReplayedRounds != 1 {
		t.Fatalf("resume = %+v, want checkpoint at round 2 + 1 replayed", rep)
	}
	if _, err := r2.Run(total); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tr2); got != want {
		t.Fatalf("fingerprint after mid-stage crash %016x != uninterrupted %016x", got, want)
	}
}
