package fedora

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/fdp"
	"repro/internal/shard"
)

// TestPrefetchBitIdentical: the tentpole invariant. Prefetch mode must
// produce bit-identical embedding tables and identical round statistics
// to sync mode, because the main ORAM executes the same op sequence in
// the same order — only the wall-clock overlap changes. Covered across
// backends, shard counts, finite/infinite ε, and with the two-phase
// StageRound leg exercised on the prefetch side.
func TestPrefetchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend Backend
		shards  int
		epsilon float64
		stage   bool
	}{
		{"fedora-mono-einf", BackendFedora, 0, fdp.EpsilonInfinity, false},
		{"fedora-mono-e1", BackendFedora, 0, 1.0, false},
		{"fedora-sharded4-e1", BackendFedora, 4, 1.0, false},
		{"fedora-sharded4-staged", BackendFedora, 4, 1.0, true},
		{"dram-sharded2-e1", BackendDRAM, 2, 1.0, false},
		{"fedora-mono-staged", BackendFedora, 0, fdp.EpsilonInfinity, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Backend: tc.backend, Epsilon: tc.epsilon, Seed: 41, Shards: tc.shards}
			sync := newController(t, cfg)
			cfgP := cfg
			cfgP.Prefetch = true
			pre := newController(t, cfgP)

			script := randomWorkload(91, 6, 4, 6, 1024, 4)
			for i, reqs := range script {
				stSync := runRound(t, sync, reqs)
				if tc.stage {
					if err := pre.StageRound(reqs); err != nil {
						t.Fatalf("round %d stage: %v", i, err)
					}
				}
				stPre := runRound(t, pre, reqs)
				if !stPre.Prefetched {
					t.Fatalf("round %d: prefetch-mode stats not marked Prefetched", i)
				}
				if stSync.K != stPre.K || stSync.KUnion != stPre.KUnion ||
					stSync.KSampled != stPre.KSampled || stSync.Dummy != stPre.Dummy ||
					stSync.Lost != stPre.Lost || stSync.RoundEpsilon != stPre.RoundEpsilon {
					t.Fatalf("round %d stats diverged:\nsync %+v\npre  %+v", i, stSync, stPre)
				}
			}
			if sync.Round() != pre.Round() {
				t.Fatalf("rounds diverged: %d vs %d", sync.Round(), pre.Round())
			}
			compareAllRows(t, sync, pre, 1024)
		})
	}
}

// TestPrefetchHitAccounting: serving every requested row scores every
// staged row as a hit; leaving staged rows unserved counts them wasted.
func TestPrefetchHitAccounting(t *testing.T) {
	cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 5, Prefetch: true}
	c := newController(t, cfg)
	st := runRound(t, c, [][]uint64{{1, 2, 3}, {4, 5}})
	if st.PrefetchHits != 5 || st.PrefetchWasted != 0 {
		t.Fatalf("full-serve round: hits=%d wasted=%d, want 5/0", st.PrefetchHits, st.PrefetchWasted)
	}

	// Serve only two of four staged rows.
	r, err := c.BeginRound([][]uint64{{10, 11}, {12, 13}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []uint64{10, 12} {
		if _, _, err := r.ServeEntry(row); err != nil {
			t.Fatal(err)
		}
	}
	st, err = r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.PrefetchHits != 2 || st.PrefetchWasted != 2 {
		t.Fatalf("partial-serve round: hits=%d wasted=%d, want 2/2", st.PrefetchHits, st.PrefetchWasted)
	}
	rep := c.PrefetchReport()
	if rep.Hits != 7 || rep.Wasted != 2 {
		t.Fatalf("lifetime report = %+v, want Hits 7 Wasted 2", rep)
	}
}

// TestStageRoundContract: the two-phase API's edge cases — idempotent
// re-stage, mismatched begin, mismatched re-stage, stage during a round.
func TestStageRoundContract(t *testing.T) {
	cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 6, Prefetch: true}
	c := newController(t, cfg)
	reqs := [][]uint64{{1, 2}, {3}}
	if err := c.StageRound(reqs); err != nil {
		t.Fatal(err)
	}
	// Identical re-stage is a no-op.
	if err := c.StageRound(reqs); err != nil {
		t.Fatalf("idempotent re-stage: %v", err)
	}
	// Different lists cannot replace a pending stage.
	if err := c.StageRound([][]uint64{{9}}); !errors.Is(err, ErrStageMismatch) {
		t.Fatalf("conflicting re-stage err = %v, want ErrStageMismatch", err)
	}
	// BeginRound with different lists must refuse too.
	if _, err := c.BeginRound([][]uint64{{9}}); !errors.Is(err, ErrStageMismatch) {
		t.Fatalf("mismatched begin err = %v, want ErrStageMismatch", err)
	}
	// Adopting the staged round works and runs a normal round.
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Staging the NEXT round while this one is open queues it.
	next := [][]uint64{{7, 8}}
	if err := c.StageRound(next); err != nil {
		t.Fatalf("stage during round: %v", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if r, err = c.BeginRound(next); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := c.Round(); got != 2 {
		t.Fatalf("rounds completed = %d, want 2", got)
	}
}

// TestStageRoundValidates: invalid staged requests fail at stage time
// with the same errors BeginRound reports.
func TestStageRoundValidates(t *testing.T) {
	cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 7, Prefetch: true}
	c := newController(t, cfg)
	tooMany := make([][]uint64, 17) // MaxClientsPerRound is 16
	for i := range tooMany {
		tooMany[i] = []uint64{uint64(i)}
	}
	if err := c.StageRound(tooMany); err == nil {
		t.Fatal("staging over MaxClientsPerRound succeeded")
	}
	if err := c.StageRound([][]uint64{{4096}}); err == nil {
		t.Fatal("staging an out-of-range row succeeded")
	}
	// The failed stages left nothing pending.
	if err := c.StageRound([][]uint64{{1}}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSnapshotPortability: Prefetch is excluded from the config
// digest and Snapshot drains the deferred write-back pass first, so a
// snapshot taken mid-training in prefetch mode is byte-identical to the
// sync-mode snapshot of the same run, restores into either mode, and
// both continuations converge to the same table.
func TestPrefetchSnapshotPortability(t *testing.T) {
	cfg := Config{Epsilon: 1.0, Seed: 13, Shards: 2}
	cfgP := cfg
	cfgP.Prefetch = true
	sync := newController(t, cfg)
	pre := newController(t, cfgP)

	script := randomWorkload(17, 5, 3, 5, 1024, 4)
	for _, reqs := range script[:3] {
		runRound(t, sync, reqs)
		runRound(t, pre, reqs)
	}
	snapSync, err := sync.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapPre, err := pre.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snapSync) != len(snapPre) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(snapSync), len(snapPre))
	}
	for i := range snapSync {
		if snapSync[i] != snapPre[i] {
			t.Fatalf("snapshots diverge at byte %d", i)
		}
	}

	// Cross-restore: prefetch-mode snapshot into a sync-mode controller
	// and vice versa; both finish the script in lockstep.
	syncFromPre := newController(t, cfg)
	if err := syncFromPre.Restore(snapPre); err != nil {
		t.Fatal(err)
	}
	preFromSync := newController(t, cfgP)
	if err := preFromSync.Restore(snapSync); err != nil {
		t.Fatal(err)
	}
	for _, reqs := range script[3:] {
		runRound(t, sync, reqs)
		runRound(t, syncFromPre, reqs)
		runRound(t, preFromSync, reqs)
	}
	compareAllRows(t, sync, syncFromPre, 1024)
	compareAllRows(t, sync, preFromSync, 1024)
}

// TestSnapshotRefusedWhileStaged: a staged round has already consumed
// the sampling RNG, so snapshotting would not be resumable — the
// controller must refuse until the stage is adopted or aborted.
func TestSnapshotRefusedWhileStaged(t *testing.T) {
	cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 21, Prefetch: true}
	c := newController(t, cfg)
	runRound(t, c, [][]uint64{{1, 2}})
	if err := c.StageRound([][]uint64{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(); !errors.Is(err, ErrRoundOpen) {
		t.Fatalf("snapshot while staged err = %v, want ErrRoundOpen", err)
	}
	// AbortRound settles the stage; the controller is snapshottable and
	// beginnable again.
	c.AbortRound()
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot after abort: %v", err)
	}
	runRound(t, c, [][]uint64{{5}})
}

// TestPrefetchRejectedForPathORAMPlus: the baseline backend draws its
// access RNG at fetch time, so lookahead would reorder draws — the
// config must be rejected up front.
func TestPrefetchRejectedForPathORAMPlus(t *testing.T) {
	cfg := Config{
		Backend: BackendPathORAMPlus, Epsilon: fdp.EpsilonInfinity, Seed: 3,
		NumRows: 1024, Dim: 4, MaxClientsPerRound: 16, MaxFeaturesPerClient: 16,
		LearningRate: 1, Prefetch: true,
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Prefetch with BackendPathORAMPlus")
	}
}

// TestPrefetchConcurrentServes drives many goroutines against a round
// whose fetcher is still streaming rows in — the pattern `go test
// -race` checks for unsynchronized access between serves, the fetcher
// and Finish.
func TestPrefetchConcurrentServes(t *testing.T) {
	cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 33, Prefetch: true, Shards: 2}
	c := newController(t, cfg)
	script := randomWorkload(55, 4, 8, 8, 1024, 4)
	for _, reqs := range script {
		r, err := c.BeginRound(reqs)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, len(reqs))
		for _, rows := range reqs {
			rows := rows
			go func() {
				for _, row := range rows {
					if _, _, err := r.ServeEntry(row); err != nil {
						errc <- err
						return
					}
					grad := make([]float32, 4)
					for i := range grad {
						grad[i] = 1
					}
					if _, err := r.SubmitGradient(row, grad, 1); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
		}
		for range reqs {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrefetchQuarantineInFlight: a device fault that fires inside the
// background fetcher must surface exactly like a sync-mode fault — the
// shard quarantines mid-round, the round completes degraded over the
// survivors, and RecoverQuarantined heals the shard.
func TestPrefetchQuarantineInFlight(t *testing.T) {
	cfg := Config{
		Epsilon: fdp.EpsilonInfinity, Seed: 31, Shards: 3,
		EvictPeriod: 1, Prefetch: true,
	}
	// Prime state over the simulator so shard-1 rows exist on its device
	// (reads of never-written rows never reach the SSD); the snapshot both
	// seeds the faulted controller and heals it later.
	clean := newController(t, cfg)
	runRound(t, clean, [][]uint64{{3, 400}, {700, 11}})
	runRound(t, clean, [][]uint64{{500, 690}, {3, 901}})
	snap, err := clean.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Shard 1 owns rows [342, 683); the first op on its file-backed SSD —
	// issued by the background fetcher — faults.
	plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{{
		Device: "shard1/ssd", Kind: fault.KindTransient, P: 1, Count: 1,
	}}}
	cfgF := cfg
	cfgF.Storage = fileSpec(t)
	cfgF.WrapDevice = plan.Wrap
	c := newController(t, cfgF)
	defer c.Close()
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// Serve rows on all three shards; shard-1 rows come back unavailable
	// once the in-flight prefetch trips the fault.
	partialGradRound(t, c, [][]uint64{{3, 400}, {500, 700}}, []uint64{3, 700})
	h := c.Health()
	if h.Status != shard.StatusDegraded || !h.Shards[1].Quarantined {
		t.Fatalf("health after in-flight prefetch fault = %+v, want shard 1 quarantined", h)
	}

	// Degraded rounds on the survivors still work, prefetch and all.
	runRound(t, c, [][]uint64{{3, 7}, {901}})

	recovered, err := c.RecoverQuarantined(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("recovered %v, want [1]", recovered)
	}
	if st := c.Health().Status; st != shard.StatusHealthy {
		t.Fatalf("health after recovery = %q, want healthy", st)
	}
	// The healed shard serves full rounds again.
	runRound(t, c, [][]uint64{{400, 500}, {3}})
}

// slowDRAM is a WrapDevice wrapper under which every eighth access to
// the DRAM-side device really sleeps, so one buffer-ORAM load (some
// twenty bucket reads and writes) holds the pipeline lock, parked, for
// well over the millisecond after which sync.Mutex hands the lock to its
// longest waiter instead of back to the goroutine that just released it.
type slowDRAM struct {
	device.Device
	ops int // the pipeline lock serializes the device's users
}

func (d *slowDRAM) slow() {
	if d.ops++; d.ops%8 == 0 {
		time.Sleep(time.Millisecond)
	}
}

func (d *slowDRAM) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	d.slow()
	return d.Device.ReadAt(addr, p)
}

func (d *slowDRAM) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	d.slow()
	return d.Device.WriteAt(addr, p)
}

// TestPrefetchServeDuringFetchMatchesSync: serves, miss-path serves and
// gradient submits issued while the fetch pass is still loading must not
// reach the buffer ORAM before the pass's last load — each of them
// accesses that Path ORAM and draws its RNG, so one that slips between
// two loads moves the prefetch run's state bytes off the sync run's.
func TestPrefetchServeDuringFetchMatchesSync(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 19, Shards: shards}
			sync := newController(t, cfg)
			cfg.Prefetch = true
			cfg.WrapDevice = func(name string, d device.Device) device.Device {
				if strings.HasSuffix(name, "dram") {
					return &slowDRAM{Device: d}
				}
				return d
			}
			pre := newController(t, cfg)

			// One client; with ε=∞ every requested row is planned, in
			// request order. Rows 0–511 live on shard 0 of 2, the rest on
			// shard 1; rows 250 and 800 are never requested.
			reqs := [][]uint64{{3, 40, 77, 130, 260, 401, 600, 650, 700, 910}}
			perShard := map[int]int{1: 10, 2: 6} // rows planned on the first row's shard
			ones := []float32{1, 1, 1, 1}
			for round := 0; round < 2; round++ {
				for _, c := range []*Controller{sync, pre} {
					r, err := c.BeginRound(reqs)
					if err != nil {
						t.Fatal(err)
					}
					// The first planned row, a row outside the plan (miss
					// path) and a gradient, on each shard, in fixed order.
					for _, trio := range [][3]uint64{{3, 250, 40}, {600, 800, 650}} {
						if _, ok, err := r.ServeEntry(trio[0]); err != nil || !ok {
							t.Fatalf("serve row %d: ok=%v err=%v", trio[0], ok, err)
						}
						if trio[0] == 3 {
							p := c.parts[0]
							p.mu.Lock()
							resident := p.buf.Resident()
							p.mu.Unlock()
							if resident != perShard[shards] {
								t.Errorf("round %d: first serve returned with %d of %d planned rows resident",
									round, resident, perShard[shards])
							}
						}
						if _, ok, err := r.ServeEntry(trio[1]); err != nil || ok {
							t.Fatalf("serve unplanned row %d: ok=%v err=%v", trio[1], ok, err)
						}
						if ok, err := r.SubmitGradient(trio[2], ones, 1); err != nil || !ok {
							t.Fatalf("gradient row %d: delivered=%v err=%v", trio[2], ok, err)
						}
					}
					if _, err := r.Finish(); err != nil {
						t.Fatal(err)
					}
				}
			}
			snapSync, err := sync.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snapPre, err := pre.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapSync, snapPre) {
				t.Fatal("prefetch-mode snapshot differs from the sync twin's")
			}
		})
	}
}
