package cluster_test

// HA capstone over REAL processes: two member fedora-servers, a durable
// primary coordinator and a hot standby sharing one checkpoint
// directory. The primary is SIGKILLed MID-ROUND (gradients delivered,
// finish never issued); the standby must promote within its lease,
// discard the torn round, replay the WAL's committed rounds, and serve
// a model bit-identical to an uninterrupted in-process run — while the
// client SDK fails over to it on its own. Afterwards both members must
// reject the dead primary's epoch. `make check` runs this under
// -race; the in-process tests in ha_test.go cover the same state
// machine with httptest servers.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/fedora"
)

func TestHAFailoverProcessesParity(t *testing.T) {
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
	ports := []int{freePort(t), freePort(t), freePort(t), freePort(t)}
	url := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
	ckptDir := t.TempDir()

	startProc(t, filepath.Join(bindir, "fedora-server"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-member-first", "0", "-member-count", "1"}, common...)...)
	startProc(t, filepath.Join(bindir, "fedora-server"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-member-first", "1", "-member-count", "1"}, common...)...)

	newClient := func(urls ...string) *client.Client {
		c, err := client.New(client.Config{
			Endpoints: urls, Timeout: 5 * time.Second, MaxRetries: 2,
			BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	waitReady(t, newClient(url(0)))
	waitReady(t, newClient(url(1)))

	members := url(0) + "=0:1," + url(1) + "=1:1"
	// Checkpoint cadence far beyond the run: every committed round must
	// come back from the WAL replay, the hardest recovery path.
	primary := startProc(t, filepath.Join(bindir, "fedora-coordinator"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-members", members, "-probe-every", "200ms",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "100",
		"-self", url(2), "-peer", url(3)}, common...)...)
	waitReady(t, newClient(url(2)))

	startProc(t, filepath.Join(bindir, "fedora-coordinator"), append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[3]),
		"-members", members, "-probe-every", "200ms",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "100",
		"-standby", "-peer", url(2), "-self", url(3),
		"-heartbeat-every", "100ms", "-lease", "500ms"}, common...)...)
	waitReady(t, newClient(url(3))) // /v2/status is a standby-allowed route

	// The failover SDK knows both coordinators; it must find the leader
	// on its own throughout.
	sdk := newClient(url(2), url(3))
	ld, err := sdk.ClusterLeader(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ld.Role != "primary" || ld.Epoch != 1 {
		t.Fatalf("pre-failover leader = %+v, want primary at epoch 1", ld)
	}

	// The uninterrupted in-process reference the failed-over cluster must
	// match bit for bit.
	ref, err := fedora.New(fedora.Config{
		NumRows: e2eRows, Dim: e2eDim, Epsilon: 1,
		MaxClientsPerRound: 100, MaxFeaturesPerClient: 100,
		LearningRate: 1, Seed: 1, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	grad := func(row uint64) []float32 {
		g := make([]float32, e2eDim)
		for i := range g {
			g[i] = float32(row%7) - 3
		}
		return g
	}
	drawReqs := func() [][]uint64 {
		reqs := make([][]uint64, 4)
		for i := range reqs {
			rows := make([]uint64, 4)
			for j := range rows {
				rows[j] = uint64(rng.Int63n(e2eRows))
			}
			reqs[i] = rows
		}
		return reqs
	}
	refRound := func(reqs [][]uint64) {
		r, err := ref.BeginRound(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range reqs {
			for _, row := range rows {
				if _, _, err := r.ServeEntry(row); err != nil {
					t.Fatal(err)
				}
				if _, err := r.SubmitGradient(row, grad(row), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	remoteGrads := func(reqs [][]uint64) []api.GradientRequest {
		var grads []api.GradientRequest
		for _, rows := range reqs {
			for _, row := range rows {
				grads = append(grads, api.GradientRequest{Row: row, Grad: grad(row), Samples: 1})
			}
		}
		return grads
	}
	remoteRound := func(reqs [][]uint64) error {
		info, err := sdk.BeginRound(ctx, reqs)
		if err != nil {
			return err
		}
		if _, err := sdk.Entries(ctx, info.RoundID, reqs[0]); err != nil {
			return err
		}
		if _, err := sdk.SubmitGradients(ctx, info.RoundID, remoteGrads(reqs)); err != nil {
			return err
		}
		_, err = sdk.FinishRound(ctx, info.RoundID)
		return err
	}

	// Two clean rounds through the primary.
	for round := 0; round < 2; round++ {
		reqs := drawReqs()
		if err := remoteRound(reqs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		refRound(reqs)
	}

	// Round 3 is TORN: gradients reach the members, then the primary is
	// SIGKILLed before finish. The trainer never saw the round succeed,
	// so it redrives the whole round — against whoever leads now.
	tornReqs := drawReqs()
	info, err := sdk.BeginRound(ctx, tornReqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.SubmitGradients(ctx, info.RoundID, remoteGrads(tornReqs)); err != nil {
		t.Fatal(err)
	}
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = primary.Process.Wait()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if err = remoteRound(tornReqs); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round never succeeded after primary kill: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	refRound(tornReqs)

	// The SDK failed over on its own, and the promoted standby leads at a
	// higher epoch.
	if sdk.Stats().Failovers == 0 {
		t.Fatal("SDK recorded no failovers across the primary kill")
	}
	ld, err = sdk.ClusterLeader(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Role != "primary" || ld.Epoch != 2 {
		t.Fatalf("post-failover leader = %+v, want promoted primary at epoch 2", ld)
	}

	// THE capstone check: model fingerprint bit-identical to the
	// uninterrupted run — the committed rounds were replayed, the torn
	// round was discarded (its redrive applied exactly once).
	for row := uint64(0); row < e2eRows; row += 37 {
		remote, err := sdk.PeekRow(ctx, row)
		if err != nil {
			t.Fatalf("peek row %d: %v", row, err)
		}
		local, err := ref.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("row %d diverged after failover: cluster %v, single-process %v", row, remote, local)
			}
		}
	}

	// Split-brain fence: every member rejects the dead primary's epoch.
	for i := 0; i < 2; i++ {
		member := newClient(url(i))
		member.SetEpoch(1)
		_, err := member.Begin(ctx, api.BeginV2Request{
			Requests: [][]uint64{{0}},
			RoundKey: fmt.Sprintf("stale-e2e-%d", i),
		})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeStaleEpoch {
			t.Fatalf("member %d accepted the dead primary's epoch: %v", i, err)
		}
	}
}
