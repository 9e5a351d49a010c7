package fl

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fdp"
)

func durableCfg(ds *dataset.Dataset) Config {
	return Config{
		Dataset: ds, Dim: 8, Hidden: 16,
		Epsilon: fdp.EpsilonInfinity, UsePrivate: true, Seed: 77,
		ClientsPerRound: 10, LocalEpochs: 1, LocalLR: 0.1,
	}
}

func newDurableTrainer(t *testing.T, ds *dataset.Dataset) *Trainer {
	t.Helper()
	tr, err := New(durableCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func fingerprint(t *testing.T, tr *Trainer) uint64 {
	t.Helper()
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// baselineFingerprint runs `rounds` rounds start-to-finish through a
// Runner (no crashes) and returns the model fingerprint.
func baselineFingerprint(t *testing.T, ds *dataset.Dataset, rounds, every int) uint64 {
	t.Helper()
	tr := newDurableTrainer(t, ds)
	r, err := NewRunner(tr, t.TempDir(), every)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, tr)
}

// checkpointFiles returns the checkpoint file paths in dir, oldest first.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestKillResumeFingerprintIdentity is the headline acceptance property:
// kill the process at arbitrary round boundaries (here: between the
// checkpoint period, and past a checkpoint) and resume; the final model
// must be bit-identical to an uninterrupted run. A "kill" abandons the
// Runner without Close or a shutdown checkpoint — exactly what a crash
// leaves behind: the WAL tail plus whatever checkpoint epochs exist.
func TestKillResumeFingerprintIdentity(t *testing.T) {
	ds := smallMovieLens()
	const total, every = 8, 3
	want := baselineFingerprint(t, ds, total, every)

	dir := t.TempDir()

	// Leg 1: two rounds, then crash. No checkpoint has been written yet
	// (every=3), so recovery must replay the whole WAL from round zero.
	r1, err := NewRunner(newDurableTrainer(t, ds), dir, every)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// crash: r1 abandoned without Close/Checkpoint.

	// Leg 2: resume, run to round 5 (crossing the round-3 checkpoint),
	// then crash again.
	r2, err := NewRunner(newDurableTrainer(t, ds), dir, every)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoredEpoch != 0 || rep.ReplayedRounds != 2 {
		t.Fatalf("leg-2 resume = %+v, want fresh replay of 2 rounds", rep)
	}
	for r2.Trainer().Rounds() < 5 {
		if _, err := r2.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// crash again.

	// Leg 3: resume from the round-3 checkpoint, replay rounds 4–5 from
	// the WAL, and finish the run.
	tr3 := newDurableTrainer(t, ds)
	r3, err := NewRunner(tr3, dir, every)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	rep, err = r3.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoredEpoch == 0 || rep.RestoredRound != 3 || rep.ReplayedRounds != 2 {
		t.Fatalf("leg-3 resume = %+v, want checkpoint at round 3 + 2 replayed", rep)
	}
	if _, err := r3.Run(total); err != nil {
		t.Fatal(err)
	}

	if got := fingerprint(t, tr3); got != want {
		t.Fatalf("fingerprint after kill-resume %016x != uninterrupted %016x", got, want)
	}
}

// TestResumeFallsBackAcrossCorruptCheckpoint corrupts the newest
// checkpoint epoch; recovery must report the skip, restore the previous
// epoch, and replay forward to the same final state.
func TestResumeFallsBackAcrossCorruptCheckpoint(t *testing.T) {
	ds := smallMovieLens()
	const total, every = 6, 2
	want := baselineFingerprint(t, ds, total, every)

	dir := t.TempDir()
	r1, err := NewRunner(newDurableTrainer(t, ds), dir, every)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := r1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// crash, leaving epochs at rounds 2, 4, 6. Corrupt the newest.
	files := checkpointFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("want >=2 checkpoint epochs, got %v", files)
	}
	newest := files[len(files)-1]
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(newest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	tr2 := newDurableTrainer(t, ds)
	r2, err := NewRunner(tr2, dir, every)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep, err := r2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 {
		t.Fatalf("skipped = %v, want the corrupted epoch reported", rep.Skipped)
	}
	if rep.RestoredRound != 4 || rep.ReplayedRounds != 2 {
		t.Fatalf("resume = %+v, want previous epoch (round 4) + 2 replayed", rep)
	}
	if got := fingerprint(t, tr2); got != want {
		t.Fatalf("fingerprint after fallback %016x != uninterrupted %016x", got, want)
	}
}

// TestResumeDiscardsTornWALTail truncates the WAL mid-record (a crash
// during the append); recovery drops the torn record and the interrupted
// round simply re-executes.
func TestResumeDiscardsTornWALTail(t *testing.T) {
	ds := smallMovieLens()
	const total = 4
	want := baselineFingerprint(t, ds, total, 0)

	dir := t.TempDir()
	r1, err := NewRunner(newDurableTrainer(t, ds), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := r1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, "rounds.wal")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	tr2 := newDurableTrainer(t, ds)
	r2, err := NewRunner(tr2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep, err := r2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.ReplayedRounds != total-1 {
		t.Fatalf("resume = %+v, want torn tail + %d replayed", rep, total-1)
	}
	if _, err := r2.Run(total); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tr2); got != want {
		t.Fatalf("fingerprint after torn-tail recovery %016x != uninterrupted %016x", got, want)
	}
}

// TestResumeRejectsDivergentConfig replays a WAL written under a
// different seed; the replayed round's seed cannot match the logged one
// and recovery must fail loudly rather than silently fork the model.
func TestResumeRejectsDivergentConfig(t *testing.T) {
	ds := smallMovieLens()
	dir := t.TempDir()
	r1, err := NewRunner(newDurableTrainer(t, ds), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.RunRound(); err != nil {
		t.Fatal(err)
	}

	cfg := durableCfg(ds)
	cfg.Seed = 78 // not the seed the WAL was written under
	tr2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(tr2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.Resume(); err == nil {
		t.Fatal("divergent replay accepted")
	}
}

func TestSaveModelFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.fckpt")
	if err := os.WriteFile(path, []byte("previous garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	ds := smallMovieLens()
	tr := newDurableTrainer(t, ds)
	if _, err := tr.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, _, err := LoadModel(f); err != nil {
		t.Fatalf("rewritten file does not decode: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
