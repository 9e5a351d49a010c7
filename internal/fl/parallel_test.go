package fl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fedora"
)

// modelFingerprint captures the full trainable state: the dense MLP
// parameters plus a sweep of embedding rows read through the evaluation
// backdoor.
func modelFingerprint(t *testing.T, tr *Trainer) []float32 {
	t.Helper()
	fp := append([]float32(nil), tr.global.MLP.Params()...)
	for row := uint64(0); row < tr.cfg.Dataset.NumItems; row += 7 {
		v, err := tr.ctrl.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		fp = append(fp, v...)
	}
	return fp
}

// TestWorkerCountDeterminism is the tentpole's core guarantee: the same
// seed must produce bit-identical model state at any worker count,
// because the merge step replays uploads in client order.
func TestWorkerCountDeterminism(t *testing.T) {
	run := func(workers int) ([]float32, Result) {
		tr := newTrainer(t, Config{
			Epsilon: 1, UsePrivate: true, Seed: 11,
			ClientsPerRound: 20, LocalEpochs: 2,
			DropoutProb: 0.2, // exercise the per-client RNG path too
			Workers:     workers,
		})
		res, err := tr.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		return modelFingerprint(t, tr), res
	}
	fp1, res1 := run(1)
	for _, w := range []int{2, 4, 8} {
		fpN, resN := run(w)
		if len(fp1) != len(fpN) {
			t.Fatalf("fingerprint lengths differ: %d vs %d", len(fp1), len(fpN))
		}
		for i := range fp1 {
			if fp1[i] != fpN[i] {
				t.Fatalf("workers=1 vs workers=%d: model state diverges at %d: %v vs %v",
					w, i, fp1[i], fpN[i])
			}
		}
		if res1.AUC != resN.AUC {
			t.Errorf("workers=1 AUC %v != workers=%d AUC %v", res1.AUC, w, resN.AUC)
		}
	}
}

// TestRoundReportsTimingsAndWorkers checks the modelled device times and
// worker count are populated on every report.
func TestRoundReportsTimingsAndWorkers(t *testing.T) {
	tr := newTrainer(t, Config{Epsilon: 1, UsePrivate: true, Seed: 12, Workers: 3})
	rep, err := tr.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Errorf("Workers = %d, want 3", rep.Workers)
	}
	if rep.UnionTime <= 0 || rep.ReadTime <= 0 || rep.UpdateTime <= 0 {
		t.Errorf("modelled device times not plumbed through: %+v", rep.RoundStats)
	}
	res, err := tr.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 || res.Elapsed <= 0 {
		t.Errorf("Result missing: workers=%d elapsed=%v", res.Workers, res.Elapsed)
	}
}

// TestRunAbortsCleanlyMidLoop is the regression test for the abort path:
// when RunRound fails mid-loop, Run must report the failing round and
// return the partial progress made before it.
func TestRunAbortsCleanlyMidLoop(t *testing.T) {
	tr := newTrainer(t, Config{Epsilon: 1, UsePrivate: true, Seed: 13, ClientsPerRound: 5})
	// Sabotage round 2: an out-of-band controller round leaves the
	// pipeline mid-flight, so the trainer's own BeginRound fails.
	tr.preRound = func(r int) {
		if r == 2 {
			if _, err := tr.ctrl.BeginRound([][]uint64{{1}}); err != nil {
				t.Errorf("sabotage BeginRound: %v", err)
			}
		}
	}
	res, err := tr.Run(5)
	if err == nil {
		t.Fatal("Run succeeded despite mid-loop failure")
	}
	if !errors.Is(err, fedora.ErrRoundInProgress) {
		t.Errorf("err = %v, want wrapped ErrRoundInProgress", err)
	}
	if !strings.Contains(err.Error(), "round 2") {
		t.Errorf("err %q does not name the failing round", err)
	}
	if res.Rounds != 2 {
		t.Errorf("partial Result.Rounds = %d, want 2 completed", res.Rounds)
	}
	if res.Elapsed <= 0 {
		t.Errorf("partial Result.Elapsed = %v, want > 0", res.Elapsed)
	}
}

// TestParallelTrainingUnderRace drives a multi-worker round with enough
// clients to make worker interleaving certain; its value is as a -race
// target (make check runs this package with the detector on).
func TestParallelTrainingUnderRace(t *testing.T) {
	tr := newTrainer(t, Config{
		Epsilon: 1, UsePrivate: true, Seed: 14,
		ClientsPerRound: 30, Workers: 8, DropoutProb: 0.1,
	})
	for r := 0; r < 3; r++ {
		if _, err := tr.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.EvaluateAUC(); err != nil {
		t.Fatal(err)
	}
}
