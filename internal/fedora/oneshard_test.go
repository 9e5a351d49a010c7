package fedora

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/fdp"
	"repro/internal/shard"
)

// TestBatchOutOfRangeRowsFail: a batch row past the table is an error at
// every shard count — the same error, from every batch call — never a
// silent miss.
func TestBatchOutOfRangeRowsFail(t *testing.T) {
	calls := []struct {
		name string
		call func(r *Round) error
	}{
		{"ServeEntries", func(r *Round) error {
			_, err := r.ServeEntries([]uint64{1, 69})
			return err
		}},
		{"SubmitGradients", func(r *Round) error {
			_, err := r.SubmitGradients([]RowGradient{{Row: 70, Grad: make([]float32, 4), Samples: 1}})
			return err
		}},
		{"SubmitAggregates", func(r *Round) error {
			_, err := r.SubmitAggregates([]RowAggregate{{Row: 70, Sum: make([]float32, 4), Count: 1}})
			return err
		}},
	}
	for _, call := range calls {
		t.Run(call.name, func(t *testing.T) {
			var msgs []string
			for _, shards := range []int{1, 2} {
				c := newController(t, Config{NumRows: 64, Epsilon: fdp.EpsilonInfinity, Seed: 5, Shards: shards})
				r, err := c.BeginRound([][]uint64{{1, 40}})
				if err != nil {
					t.Fatal(err)
				}
				err = call.call(r)
				if err == nil {
					t.Fatalf("Shards %d: out-of-range row accepted", shards)
				}
				msgs = append(msgs, err.Error())
				if _, err := r.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			if msgs[0] != msgs[1] {
				t.Errorf("Shards 1 error %q, Shards 2 error %q: want the same", msgs[0], msgs[1])
			}
		})
	}
}

// TestOneShardFaultsAreLoud: a one-shard controller has no shard to
// degrade to, so a device fault fails the round with the injected error
// whether the fetch pass runs inline or ahead, and nothing is ever
// quarantined or recovered.
func TestOneShardFaultsAreLoud(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		cfg := Config{Epsilon: fdp.EpsilonInfinity, Seed: 31, EvictPeriod: 1, Prefetch: prefetch}
		// Rows only reach the SSD once written back: prime them over the
		// simulator and restore the faulted controller from there.
		clean := newController(t, cfg)
		runRound(t, clean, [][]uint64{{3, 400}, {700, 11}})
		snap, err := clean.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{{Device: "ssd", Kind: fault.KindTransient, P: 1, Count: 1}}}
		cfgF := cfg
		cfgF.Storage = fileSpec(t)
		cfgF.WrapDevice = plan.Wrap
		c := newController(t, cfgF)
		t.Cleanup(func() { c.Close() })
		if err := c.Restore(snap); err != nil {
			t.Fatal(err)
		}

		r, err := c.BeginRound([][]uint64{{3, 400}, {700}})
		if err == nil {
			_, err = r.ServeEntries([]uint64{3, 400, 700})
			c.AbortRound()
		}
		if !errors.Is(err, device.ErrInjected) {
			t.Fatalf("Prefetch %v: round error %v, want device.ErrInjected", prefetch, err)
		}
		if h := c.Health(); h.Status != shard.StatusHealthy || h.Quarantines != 0 || h.Recoveries != 0 {
			t.Errorf("Prefetch %v: health after a fault = %+v, want healthy with no events", prefetch, h)
		}
		if rec, err := c.RecoverQuarantined(snap); rec != nil || err != nil {
			t.Errorf("Prefetch %v: RecoverQuarantined = %v, %v; want nil, nil", prefetch, rec, err)
		}
	}
}

// TestOneShardRestoreShardTakesRound: a one-shard controller's section is
// its whole snapshot, so replaying it with RestoreShard — standalone or
// as a cluster member's one-shard slice — leaves the round counter and
// the state bytes those of the controller that exported it.
func TestOneShardRestoreShardTakesRound(t *testing.T) {
	global := Config{NumRows: 300, Dim: 4, Epsilon: 1, Seed: 9, MaxClientsPerRound: 8, MaxFeaturesPerClient: 8, Shards: 3}
	member, err := SliceConfig(global, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	standalone := global
	standalone.Shards = 1
	for name, cfg := range map[string]Config{"standalone": standalone, "member": member} {
		src := newController(t, cfg)
		for _, reqs := range randomWorkload(3, 4, 4, 5, src.NumRows(), 4) {
			runRound(t, src, reqs)
		}
		blob, err := src.SnapshotShard(cfg.ShardBase)
		if err != nil {
			t.Fatal(err)
		}
		dst := newController(t, cfg)
		if err := dst.RestoreShard(cfg.ShardBase, blob); err != nil {
			t.Fatal(err)
		}
		if got, want := dst.Round(), src.Round(); got != want {
			t.Errorf("%s: Round() after RestoreShard = %d, want %d", name, got, want)
		}
		a, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := dst.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: Snapshot() after RestoreShard differs from the source's", name)
		}
	}
}

// TestRoundPathAllocs bounds the allocations of the round path: a batch
// of 64 rows, and a begin plus finish, on one shard and on the first of
// two shards. On one shard the engine may add at most 3 allocations a
// batch and 15 a begin and finish to a bare pipeline's round (65, 1 and
// 119); a batch whose rows all sit on one of two shards reaches it
// ungrouped, so it costs no more than a grouped batch did (82 and 18).
func TestRoundPathAllocs(t *testing.T) {
	rows := make([]uint64, 64)
	grads := make([]RowGradient, 64)
	reqs := make([][]uint64, 4)
	for i := range rows {
		rows[i] = uint64(i)
		grads[i] = RowGradient{Row: uint64(i), Grad: []float32{1, 1, 1, 1}, Samples: 1}
		reqs[i/16] = append(reqs[i/16], uint64(i))
	}
	for _, tc := range []struct {
		shards                int
		serve, submit, rounds float64
	}{
		{1, 65 + 3, 1 + 3, 119 + 15},
		{2, 82, 18, 165},
	} {
		c := newController(t, Config{NumRows: 128, Epsilon: fdp.EpsilonInfinity, Seed: 3, Shards: tc.shards, ShardWorkers: tc.shards})
		r, err := c.BeginRound(reqs)
		if err != nil {
			t.Fatal(err)
		}
		serve := testing.AllocsPerRun(20, func() {
			if _, err := r.ServeEntries(rows); err != nil {
				t.Fatal(err)
			}
		})
		submit := testing.AllocsPerRun(20, func() {
			if _, err := r.SubmitGradients(grads); err != nil {
				t.Fatal(err)
			}
		})
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		rounds := testing.AllocsPerRun(20, func() {
			r, err := c.BeginRound(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Finish(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Shards %d: serve %v, submit %v, begin+finish %v allocations", tc.shards, serve, submit, rounds)
		if serve > tc.serve || submit > tc.submit || rounds > tc.rounds {
			t.Errorf("Shards %d: serve %v, submit %v, begin+finish %v allocations; want at most %v, %v, %v",
				tc.shards, serve, submit, rounds, tc.serve, tc.submit, tc.rounds)
		}
	}
}
