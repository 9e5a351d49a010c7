package cluster_test

// End-to-end cluster test over REAL processes: builds fedora-server and
// fedora-coordinator, starts two member processes each serving one
// shard of a 2-shard row-space and a coordinator fronting them, drives
// deterministic rounds through the client SDK, and requires the served
// model to match an in-process single-controller run row for row. Then
// it kills one member and requires the next round to degrade (rows on
// the dead node unavailable) instead of failing. This is the
// multi-process capstone, run by `make check`; the in-process
// tests in cluster_test.go cover the same invariants with httptest
// servers plus checkpoint assembly and join-time migration.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/fedora"
)

// e2eRows/e2eDim are the shared GLOBAL geometry; every process flag and
// the in-process reference below must agree with them.
const (
	e2eRows = 1024
	e2eDim  = 4
)

// freePorts reserves n distinct ephemeral localhost ports and releases
// them for child processes to bind. Every listener stays open until all
// n are drawn, so no two draws return the same port. (Another process
// taking one before the child binds it is a race a test accepts.)
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports
}

// startProc launches a built binary and registers cleanup that kills it.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

// waitReady polls /v2/status until the server answers.
func waitReady(t *testing.T, c *client.Client) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Status(ctx)
		cancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClusterProcessesParityAndNodeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes; skipped with -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}

	bindir := t.TempDir()
	for _, pkg := range []string{"fedora-server", "fedora-coordinator"} {
		build := exec.Command(goBin, "build", "-o", filepath.Join(bindir, pkg), "./cmd/"+pkg)
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	common := []string{
		"-rows", fmt.Sprint(e2eRows), "-dim", fmt.Sprint(e2eDim),
		"-eps", "1", "-seed", "1", "-shards", "2",
	}
	ports := freePorts(t, 3)
	memberURL := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }

	m0 := startProc(t, filepath.Join(bindir, "fedora-server"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-member-first", "0", "-member-count", "1"}, common...)...)
	m1 := startProc(t, filepath.Join(bindir, "fedora-server"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-member-first", "1", "-member-count", "1"}, common...)...)
	_ = m0

	newClient := func(url string) *client.Client {
		c, err := client.New(client.Config{
			BaseURL: url, Timeout: 5 * time.Second, MaxRetries: 2,
			BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	waitReady(t, newClient(memberURL(0)))
	waitReady(t, newClient(memberURL(1)))

	startProc(t, filepath.Join(bindir, "fedora-coordinator"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-members", memberURL(0) + "=0:1," + memberURL(1) + "=1:1",
		"-probe-every", "200ms"}, common...)...)
	coord := newClient(memberURL(2))
	waitReady(t, coord)

	// The in-process reference: the identical GLOBAL config in one
	// controller. The cluster must serve the exact same model.
	ref, err := fedora.New(fedora.Config{
		NumRows: e2eRows, Dim: e2eDim, Epsilon: 1,
		MaxClientsPerRound: 100, MaxFeaturesPerClient: 100,
		LearningRate: 1, Seed: 1, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic workload: 3 rounds of 4 clients × 4 rows, gradients
	// derived from the row index, mirrored through both paths.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	grad := func(row uint64) []float32 {
		g := make([]float32, e2eDim)
		for i := range g {
			g[i] = float32(row%7) - 3
		}
		return g
	}
	for round := 0; round < 3; round++ {
		reqs := make([][]uint64, 4)
		for i := range reqs {
			rows := make([]uint64, 4)
			for j := range rows {
				rows[j] = uint64(rng.Int63n(e2eRows))
			}
			reqs[i] = rows
		}

		info, err := coord.BeginRound(ctx, reqs)
		if err != nil {
			t.Fatalf("round %d: begin via coordinator: %v", round, err)
		}
		r, err := ref.BeginRound(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var grads []api.GradientRequest
		for _, rows := range reqs {
			entries, err := coord.Entries(ctx, info.RoundID, rows)
			if err != nil {
				t.Fatalf("round %d: entries: %v", round, err)
			}
			for _, e := range entries {
				if e.Unavailable {
					t.Fatalf("round %d: row %d unavailable on a healthy cluster", round, e.Row)
				}
			}
			for _, row := range rows {
				if _, _, err := r.ServeEntry(row); err != nil {
					t.Fatal(err)
				}
				if _, err := r.SubmitGradient(row, grad(row), 1); err != nil {
					t.Fatal(err)
				}
				grads = append(grads, api.GradientRequest{Row: row, Grad: grad(row), Samples: 1})
			}
		}
		if _, err := coord.SubmitGradients(ctx, info.RoundID, grads); err != nil {
			t.Fatalf("round %d: gradients: %v", round, err)
		}
		if _, err := coord.FinishRound(ctx, info.RoundID); err != nil {
			t.Fatalf("round %d: finish: %v", round, err)
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	// Parity: the model served by two processes matches the one-process
	// reference bit for bit (sampled across both placements).
	for row := uint64(0); row < e2eRows; row += 37 {
		remote, err := coord.PeekRow(ctx, row)
		if err != nil {
			t.Fatalf("peek row %d: %v", row, err)
		}
		local, err := ref.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("row %d diverged: cluster %v, single-process %v", row, remote, local)
			}
		}
	}

	// Node kill: the second member (rows [512,1024)) dies. The next
	// round must DEGRADE — its rows come back unavailable — not fail.
	if err := m1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = m1.Process.Wait()

	info, err := coord.BeginRound(ctx, [][]uint64{{3, 600}, {900, 40}})
	if err != nil {
		t.Fatalf("begin after node kill: %v", err)
	}
	entries, err := coord.Entries(ctx, info.RoundID, []uint64{3, 600, 900, 40})
	if err != nil {
		t.Fatalf("entries after node kill: %v", err)
	}
	unavailable := 0
	for _, e := range entries {
		switch {
		case e.Row >= 512 && !e.Unavailable:
			t.Fatalf("row %d served by a dead node", e.Row)
		case e.Unavailable:
			unavailable++
		}
	}
	if unavailable != 2 {
		t.Fatalf("%d rows unavailable after node kill, want 2", unavailable)
	}
	if _, err := coord.FinishRound(ctx, info.RoundID); err != nil {
		t.Fatalf("degraded finish: %v", err)
	}

	st, err := coord.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "degraded" {
		t.Fatalf("cluster status %q after node kill, want degraded", st.Status)
	}
	fenced := false
	for _, n := range st.Nodes {
		if n.FirstShard == 1 && n.State == "fenced" {
			fenced = true
		}
	}
	if !fenced {
		t.Fatalf("dead node not fenced: %+v", st.Nodes)
	}
}
