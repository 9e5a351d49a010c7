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

	driveHARounds(t, co, rng, 5)
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
	driveHARounds(t, co, rng, 5) // fails the test if any round does
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
	driveHARounds(t, co, rng, 5)
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
// byte in three exact-size buffers on its way to the file — the
// member's blob, the coordinator's receive buffer, the assembled blob —
// so one checkpointNow over two loopback members allocates, process-
// wide (the members live in this process), under 4× the blob; buffers
// grown by doubling at each of five hops made that ≈ 16×. The bytes are
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
	blob, ok := cp.Get(CheckpointSection)
	if !ok {
		t.Fatalf("saved checkpoint has no %q section", CheckpointSection)
	}
	want, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("saved cluster checkpoint (%d bytes) differs from the single-process snapshot (%d bytes)", len(blob), len(want))
	}

	got, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(blob))
	t.Logf("checkpoint %d bytes, allocated %d process-wide (%.2f×)", len(blob), got, float64(got)/float64(len(blob)))
	if got > limit {
		t.Errorf("checkpointNow allocated %d bytes for a %d-byte checkpoint, want ≤ %d (4×)", got, len(blob), limit)
	}
}
