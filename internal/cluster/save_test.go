package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/fedora"
)

// errKilled stands in for a crash at a checkpoint save's step.
var errKilled = errors.New("killed at this step")

// driveRounds runs n full rounds (begin → one gradient batch → finish)
// through begin, drawing requests from rng as driveHARounds does.
func driveRounds(t *testing.T, begin func([][]uint64) (api.Round, error), rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		reqs := haRequests(rng)
		r, err := begin(reqs)
		if err != nil {
			t.Fatalf("begin round: %v", err)
		}
		if _, err := haSubmit(r, api.FrameGradients, slices.Concat(reqs...)); err != nil {
			t.Fatalf("submit batch: %v", err)
		}
		if _, err := r.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
}

// twinSnapshot is the snapshot of a single-process controller after the
// first n rounds seed draws: what an uninterrupted cluster run's
// Snapshot() returns, byte for byte.
func twinSnapshot(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	twin, err := fedora.New(haGlobal())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	driveRounds(t, func(reqs [][]uint64) (api.Round, error) { return twin.BeginRound(reqs) },
		rand.New(rand.NewSource(seed)), n)
	blob, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// holdAt stops co's next checkpoint save before step until release is
// called; held is closed once the save waits there. The cleanup
// releases it, so a test that fails meanwhile does not hang in
// StopProbes.
func holdAt(t *testing.T, co *Coordinator, step string) (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(r) }) }
	t.Cleanup(release)
	co.savePoint = func(s string) error {
		if s == step {
			close(h)
			<-r
		}
		return nil
	}
	return h, release
}

// recoverAndCompare plays the restarted coordinator: a new incarnation
// over the same directory and members claims the next epoch, recovers
// checkpoint + WAL, and must land on round want with Snapshot() bytes
// equal to an uninterrupted run's.
func recoverAndCompare(t *testing.T, nodes []NodeSpec, dir string, seed int64, want int) {
	t.Helper()
	co := haCoordinator(t, nodes, dir, 3)
	startHA(t, co)
	if got := co.Round(); got != uint64(want) {
		t.Fatalf("recovered round = %d, want %d", got, want)
	}
	got, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, twinSnapshot(t, seed, want)) {
		t.Fatalf("recovered snapshot (%d bytes) differs from an uninterrupted run's", len(got))
	}
}

// TestCheckpointKilledBeforeRename: the coordinator dies after round
// 3's cadence snapshot was taken but before its checkpoint file was
// renamed into place, with round 4 logged meanwhile. Recovery restores
// the older checkpoint and replays all four rounds from the WAL.
func TestCheckpointKilledBeforeRename(t *testing.T) {
	nodes, dir := haMembers(t), t.TempDir()
	const seed = 11
	rng := rand.New(rand.NewSource(seed))
	co := haCoordinator(t, nodes, dir, 3)
	ha := startHA(t, co)
	co.savePoint = func(step string) error {
		if step == "rename" {
			return errKilled
		}
		return nil
	}
	driveHARounds(t, co, api.FrameGradients, rng, 4)
	if st := clusterStatus(t, co); !strings.Contains(st.LastCheckpointError, errKilled.Error()) || st.LastCheckpointRound != 0 {
		t.Fatalf("status after the killed save: checkpoint round %d, error %q", st.LastCheckpointRound, st.LastCheckpointError)
	}
	co.StopProbes()
	ha.release()
	recoverAndCompare(t, nodes, dir, seed, 4)
}

// TestCheckpointKilledBeforeWALCut: the coordinator dies after round
// 3's checkpoint was renamed into place but before the WAL was cut, so
// the log still holds the rounds the checkpoint holds. Recovery skips
// those and replays only round 4.
func TestCheckpointKilledBeforeWALCut(t *testing.T) {
	nodes, dir := haMembers(t), t.TempDir()
	const seed = 12
	rng := rand.New(rand.NewSource(seed))
	co := haCoordinator(t, nodes, dir, 3)
	ha := startHA(t, co)
	co.savePoint = func(step string) error {
		if step == "WAL cut" {
			return errKilled
		}
		return nil
	}
	driveHARounds(t, co, api.FrameGradients, rng, 4)
	if st := clusterStatus(t, co); st.LastCheckpointRound != 3 {
		t.Fatalf("status after the killed cut: checkpoint round %d, want 3 (the checkpoint is durable)", st.LastCheckpointRound)
	}
	if rounds, _, err := readRoundLog(co.mgr.WALPath()); err != nil || len(rounds) != 4 {
		t.Fatalf("WAL after the killed cut: %d rounds, %v; want all 4", len(rounds), err)
	}
	co.StopProbes()
	ha.release()
	recoverAndCompare(t, nodes, dir, seed, 4)
}

// TestCheckpointSaveDuringRounds: round 4 commits and round 5 opens
// while round 3's checkpoint is still being written. The WAL cut keeps
// both rounds' frames; the coordinator then dies with round 5 open, and
// recovery replays round 4 from the cut log and discards round 5.
func TestCheckpointSaveDuringRounds(t *testing.T) {
	nodes, dir := haMembers(t), t.TempDir()
	const seed = 13
	rng := rand.New(rand.NewSource(seed))
	co := haCoordinator(t, nodes, dir, 3)
	ha := startHA(t, co)
	held, release := holdAt(t, co, "rename")
	driveHARounds(t, co, api.FrameGradients, rng, 3)
	<-held
	driveHARounds(t, co, api.FrameGradients, rng, 1)
	reqs := haRequests(rng)
	r5, err := co.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := haSubmit(r5, api.FrameGradients, slices.Concat(reqs...)); err != nil {
		t.Fatal(err)
	}
	release()
	co.WaitSaved()

	rounds, _, err := readRoundLog(co.mgr.WALPath())
	if err != nil || len(rounds) != 2 || rounds[0].seq != 4 || !rounds[0].committed || rounds[1].seq != 5 || rounds[1].committed {
		t.Fatalf("WAL after the cut: %d rounds (%v), want committed round 4 and open round 5", len(rounds), err)
	}
	if st := clusterStatus(t, co); st.LastCheckpointRound != 3 || st.LastCheckpointError != "" {
		t.Fatalf("status after the save: checkpoint round %d, error %q; want 3 and none", st.LastCheckpointRound, st.LastCheckpointError)
	}
	co.StopProbes()
	ha.release()
	recoverAndCompare(t, nodes, dir, seed, 4)
}

// TestStalePrimaryWALResetRefused: a primary that has not yet learned it
// was deposed must not cut the shared WAL. Its successor has promoted
// and committed a round there; the stale primary's after-save WAL reset
// — the step its checkpoint save ends with — used to wipe that round.
// It is now refused under the epoch lock, and the refusal shows in
// /cluster/status.
func TestStalePrimaryWALResetRefused(t *testing.T) {
	nodes, dir := haMembers(t), t.TempDir()
	rng := rand.New(rand.NewSource(6))
	co1 := haCoordinator(t, nodes, dir, 0)
	ha1 := startHA(t, co1)
	driveHARounds(t, co1, api.FrameGradients, rng, 2)
	ha1.release()

	co2 := haCoordinator(t, nodes, dir, 100)
	startHA(t, co2)
	driveHARounds(t, co2, api.FrameGradients, rng, 1)
	if rounds, _, err := readRoundLog(co2.mgr.WALPath()); err != nil || len(rounds) != 1 {
		t.Fatalf("successor WAL: %d rounds, %v; want 1", len(rounds), err)
	}

	if err := co1.resetWAL(); err == nil {
		t.Error("the stale primary's WAL reset was not refused")
	}
	if rounds, _, err := readRoundLog(co2.mgr.WALPath()); err != nil || len(rounds) != 1 {
		t.Fatalf("successor WAL after the stale primary's reset: %d rounds, %v; want 1", len(rounds), err)
	}
	if st := clusterStatus(t, co1); st.LastCheckpointError == "" {
		t.Error("the refusal is not in the stale primary's /cluster/status")
	}
}

// TestStalePrimarySaveRefused: a cadence save that was in flight when a
// successor promoted neither renames its checkpoint over the
// successor's nor cuts the successor's WAL.
func TestStalePrimarySaveRefused(t *testing.T) {
	nodes, dir := haMembers(t), t.TempDir()
	rng := rand.New(rand.NewSource(7))
	co1 := haCoordinator(t, nodes, dir, 2)
	ha1 := startHA(t, co1)
	held, release := holdAt(t, co1, "rename")
	driveHARounds(t, co1, api.FrameGradients, rng, 2)
	<-held
	ha1.release() // does not wait for the held save, as death would not

	co2 := haCoordinator(t, nodes, dir, 100)
	startHA(t, co2)
	driveHARounds(t, co2, api.FrameGradients, rng, 1)
	want, _, err := co2.mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	release()
	co1.WaitSaved()

	got, _, err := co2.mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch {
		t.Fatalf("newest checkpoint epoch %d after the stale save, want the successor's %d", got.Epoch, want.Epoch)
	}
	if rounds, _, err := readRoundLog(co2.mgr.WALPath()); err != nil || len(rounds) != 1 {
		t.Fatalf("successor WAL after the stale save: %d rounds, %v; want 1", len(rounds), err)
	}
	st := clusterStatus(t, co1)
	if !strings.Contains(st.LastCheckpointError, "refused") || st.LastCheckpointRound == 2 {
		t.Fatalf("stale primary status: checkpoint round %d, error %q; want the refusal", st.LastCheckpointRound, st.LastCheckpointError)
	}
}
