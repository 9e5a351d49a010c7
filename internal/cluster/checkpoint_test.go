package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/api"
	"repro/internal/fedora"
	"repro/internal/persist"
)

// clusterStatus fetches /cluster/status the way an operator would.
func clusterStatus(t *testing.T, co *Coordinator) api.ClusterStatusResponse {
	t.Helper()
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.ClusterStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFailedCheckpointIsVisible: a checkpoint that cannot be written
// never fails a round — but it used to vanish entirely (`_ =
// c.checkpointNow()`), leaving a cluster that looked durable and was
// replaying an ever longer WAL. The failure now shows in
// /cluster/status until a later checkpoint succeeds.
func TestFailedCheckpointIsVisible(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	co := haCoordinator(t, haMembers(t), dir, 5)
	rng := rand.New(rand.NewSource(3))

	driveHARounds(t, co, api.FrameGradients, rng, 5)
	if st := clusterStatus(t, co); st.LastCheckpointRound != 5 || st.LastCheckpointError != "" {
		t.Fatalf("after five healthy rounds: checkpoint round %d, error %q; want 5 and none",
			st.LastCheckpointRound, st.LastCheckpointError)
	}

	// Swap the directory for a regular file (a chmod does not stop root):
	// the open round WAL keeps working, saving a checkpoint cannot.
	if err := os.Rename(dir, dir+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	driveHARounds(t, co, api.FrameGradients, rng, 5) // fails the test if any round does
	st := clusterStatus(t, co)
	if st.LastCheckpointError == "" || st.LastCheckpointRound != 5 || st.Round != 10 {
		t.Fatalf("after five rounds over a broken checkpoint directory: round %d, checkpoint round %d, error %q; want 10, 5 and the save failure",
			st.Round, st.LastCheckpointRound, st.LastCheckpointError)
	}
	t.Logf("last_checkpoint_error: %s", st.LastCheckpointError)

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir+".aside", dir); err != nil {
		t.Fatal(err)
	}
	driveHARounds(t, co, api.FrameGradients, rng, 5)
	if st := clusterStatus(t, co); st.LastCheckpointRound != 15 || st.LastCheckpointError != "" {
		t.Fatalf("after the directory came back: checkpoint round %d, error %q; want 15 and none",
			st.LastCheckpointRound, st.LastCheckpointError)
	}
}

// ckptGlobal is big enough that a checkpoint's bytes dwarf the fixed
// cost of the HTTP calls that move them.
func ckptGlobal() fedora.Config {
	return fedora.Config{
		NumRows: 16384, Dim: 16, Epsilon: 1, Encrypt: true, HasScratchpad: true,
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 32, LearningRate: 1, Seed: 5, Shards: 2,
	}
}

// ckptRound drives one deterministic round through begin/submit/finish
// of either a coordinator or a single-process controller.
func ckptRound(t *testing.T, rng *rand.Rand, begin func([][]uint64) (api.Round, error)) {
	t.Helper()
	g := ckptGlobal()
	reqs := make([][]uint64, g.MaxClientsPerRound)
	var grads []fedora.RowGradient
	for c := range reqs {
		for j := 0; j < g.MaxFeaturesPerClient; j++ {
			row := uint64(rng.Intn(int(g.NumRows)))
			reqs[c] = append(reqs[c], row)
			grad := make([]float32, g.Dim)
			for d := range grad {
				grad[d] = float32(row%5) - 2
			}
			grads = append(grads, fedora.RowGradient{Row: row, Grad: grad, Samples: 1})
		}
	}
	r, err := begin(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitGradients(grads); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAllocBounded: a cluster checkpoint holds each snapshot
// byte in one exact-size buffer on its way to the file — the member's
// blob; the coordinator streams the replies into the file — so one
// checkpointNow over two loopback members allocates, process-wide (the
// members live in this process), under 1.5× the blob. A receive buffer
// and an assembled blob on the coordinator made that ≈ 3×, and buffers
// grown by doubling at each of five hops ≈ 16×. The bytes are
// untouched: the saved file carries exactly the snapshot of a single-
// process controller that served the same rounds.
func TestCheckpointAllocBounded(t *testing.T) {
	global := ckptGlobal()
	var nodes []NodeSpec
	for g := 0; g < global.Shards; g++ {
		m, _ := startMember(t, global, g, 1)
		nodes = append(nodes, NodeSpec{URL: m.URL, First: g, Count: 1})
	}
	mgr, err := persist.OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{
		Fedora: global, Nodes: nodes, Client: testClientConfig(),
		Manager: mgr, CheckpointEvery: 1 << 30, // checkpoints only when the test says
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.StopProbes)
	twin, err := fedora.New(global)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	rngA, rngB := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	for i := 0; i < 6; i++ {
		ckptRound(t, rngA, co.BeginRound)
		ckptRound(t, rngB, func(reqs [][]uint64) (api.Round, error) { return twin.BeginRound(reqs) })
	}
	if err := co.checkpointNow(); err != nil { // warm: connections, bufio pools
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := co.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	cp, _, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := cp.Get(persist.ControllerSection)
	if !ok {
		t.Fatalf("saved checkpoint has no %q section", persist.ControllerSection)
	}
	want, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("saved cluster checkpoint (%d bytes) differs from the single-process snapshot (%d bytes)", len(blob), len(want))
	}

	got, limit := after.TotalAlloc-before.TotalAlloc, 3*uint64(len(blob))/2
	t.Logf("checkpoint %d bytes, allocated %d process-wide (%.2f×)", len(blob), got, float64(got)/float64(len(blob)))
	if got > limit {
		t.Errorf("checkpointNow allocated %d bytes for a %d-byte checkpoint, want ≤ %d (1.5×)", got, len(blob), limit)
	}
}

// TestCheckpointEmptiesWALAndShowsRound: the exported Checkpoint — a
// clean shutdown's one checkpoint path — empties the round WAL and
// records the round it sealed in /cluster/status, like the cadence
// checkpoint does.
func TestCheckpointEmptiesWALAndShowsRound(t *testing.T) {
	dir := t.TempDir()
	co := haCoordinator(t, haMembers(t), dir, 100)
	driveHARounds(t, co, api.FrameGradients, rand.New(rand.NewSource(9)), 3)
	if rounds, _, err := readRoundLog(co.mgr.WALPath()); err != nil || len(rounds) != 3 {
		t.Fatalf("WAL before Checkpoint: %d rounds, %v; want 3", len(rounds), err)
	}
	if err := co.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rounds, _, err := readRoundLog(co.mgr.WALPath()); err != nil || len(rounds) != 0 {
		t.Errorf("WAL after Checkpoint: %d rounds, %v; want empty", len(rounds), err)
	}
	if st := clusterStatus(t, co); st.LastCheckpointRound != 3 || st.LastCheckpointError != "" {
		t.Errorf("status after Checkpoint: checkpoint round %d, error %q; want 3 and none",
			st.LastCheckpointRound, st.LastCheckpointError)
	}
}

// TestOneShardRecoverAfterReplacement: a one-shard cluster checkpoint
// carries the coordinator's round, not its member's. Rounds 1–2 run and
// checkpoint, the member dies so round 3 fails, a replacement joins with
// the round-2 state migrated onto it, and rounds 4–5 checkpoint at 4 and
// log 5. When a checkpoint carried the member's round (one behind after
// the failed round), recovery replayed round 5 as round 4 and failed
// with a replay sequence skew.
func TestOneShardRecoverAfterReplacement(t *testing.T) {
	global := haGlobal()
	global.Shards = 1
	dir := t.TempDir()
	coordinator := func(url string) *Coordinator {
		mgr, err := persist.OpenManager(dir)
		if err != nil {
			t.Fatal(err)
		}
		co, err := New(Config{
			Fedora:          global,
			Nodes:           []NodeSpec{{URL: url, First: 0, Count: 1}},
			Client:          testClientConfig(),
			Manager:         mgr,
			CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.StopProbes)
		return co
	}
	m, _ := startMember(t, global, 0, 1)
	co1 := coordinator(m.URL)
	rng := rand.New(rand.NewSource(4))
	driveHARounds(t, co1, api.FrameGradients, rng, 2)

	m.Close()
	if r, err := co1.BeginRound(haRequests(rng)); err == nil {
		if _, err := r.Finish(); err == nil {
			t.Fatal("round 3 over a dead member succeeded")
		}
	}
	replacement, _ := startMember(t, global, 0, 1)
	resp, err := co1.Join(api.ClusterJoinRequest{URL: replacement.URL, FirstShard: 0, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || len(resp.Migrated) != 1 {
		t.Fatalf("join = %+v, want accepted with shard 0 migrated", resp)
	}
	driveHARounds(t, co1, api.FrameGradients, rng, 2)
	if got := co1.Round(); got != 5 {
		t.Fatalf("coordinator round = %d, want 5", got)
	}
	want := haPeeks(t, co1)
	co1.StopProbes()

	co2 := coordinator(replacement.URL)
	co2.SetEpoch(1) // a new incarnation: its round keys must not collide with co1's
	if _, err := co2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := co2.Round(); got != 5 {
		t.Fatalf("recovered round = %d, want 5", got)
	}
	assertPeeksEqual(t, want, haPeeks(t, co2))
}
