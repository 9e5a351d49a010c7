package fedora

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// shardedCfg is the shared geometry for the sharded-controller tests:
// small enough to run real (non-phantom) ORAMs, big enough that a 4-way
// split leaves uneven shards (96 rows / 4 = 24, 100 / 4 = 25, and the
// uneven cases below use 98).
func shardedCfg(shards int) Config {
	return Config{
		NumRows:              98,
		Dim:                  4,
		Epsilon:              0, // Delta shape: k = K, nothing lost
		MaxClientsPerRound:   8,
		MaxFeaturesPerClient: 8,
		LearningRate:         1,
		Seed:                 42,
		Shards:               shards,
	}
}

// randomWorkload builds deterministic per-round request lists plus the
// gradient each client submits for each of its rows.
func randomWorkload(seed int64, rounds, clients, featsPer int, numRows uint64, dim int) [][][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]uint64, rounds)
	for r := range out {
		reqs := make([][]uint64, clients)
		for ci := range reqs {
			seen := map[uint64]bool{}
			for len(reqs[ci]) < featsPer {
				row := uint64(rng.Int63n(int64(numRows)))
				if seen[row] {
					continue
				}
				seen[row] = true
				reqs[ci] = append(reqs[ci], row)
			}
		}
		out[r] = reqs
	}
	return out
}

// driveRound runs one full round: serve every requested row, submit a
// row-derived gradient, finish. Gradients are a pure function of the row
// so any two controllers given the same workload do the same math.
func driveRound(t *testing.T, c *Controller, reqs [][]uint64) RoundStats {
	t.Helper()
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range reqs {
		for _, row := range rows {
			if row == DummyRequest {
				continue
			}
			if _, _, err := r.ServeEntry(row); err != nil {
				t.Fatal(err)
			}
			grad := make([]float32, 4)
			for i := range grad {
				grad[i] = float32(row%7) * 0.25
			}
			if _, err := r.SubmitGradient(row, grad, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// peekAll reads the whole embedding table.
func peekAll(t *testing.T, c *Controller) [][]float32 {
	t.Helper()
	out := make([][]float32, c.cfg.NumRows)
	for row := uint64(0); row < c.cfg.NumRows; row++ {
		v, err := c.PeekRow(row)
		if err != nil {
			t.Fatalf("peek %d: %v", row, err)
		}
		out[row] = v
	}
	return out
}

// TestShardedMatchesMonolithicEpsilonZero pins the headline equivalence:
// at ε = 0 (Delta shape, nothing sacrificed) a sharded controller must
// produce a bit-identical embedding table and the same effective ε as
// the monolithic pipeline, for several shard counts.
func TestShardedMatchesMonolithicEpsilonZero(t *testing.T) {
	workload := randomWorkload(7, 4, 4, 5, 98, 4)
	mono := newController(t, shardedCfg(0))
	var monoEps float64
	for _, reqs := range workload {
		monoEps = driveRound(t, mono, reqs).RoundEpsilon
	}
	want := peekAll(t, mono)

	for _, shards := range []int{2, 4, 7} {
		c := newController(t, shardedCfg(shards))
		if got := c.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		var eps float64
		var st RoundStats
		for _, reqs := range workload {
			st = driveRound(t, c, reqs)
			eps = st.RoundEpsilon
		}
		if c.EffectiveEpsilon() != mono.EffectiveEpsilon() {
			t.Errorf("shards=%d EffectiveEpsilon %v != monolithic %v",
				shards, c.EffectiveEpsilon(), mono.EffectiveEpsilon())
		}
		if eps != monoEps {
			t.Errorf("shards=%d RoundEpsilon %v != monolithic %v", shards, eps, monoEps)
		}
		if len(st.PerShard) != shards {
			t.Fatalf("shards=%d PerShard has %d entries", shards, len(st.PerShard))
		}
		kSum, lost := 0, 0
		var rowSum uint64
		for _, ps := range st.PerShard {
			kSum += ps.K
			lost += ps.Lost
			rowSum += ps.Rows
		}
		if kSum != st.K || rowSum != 98 || lost != 0 {
			t.Errorf("shards=%d per-shard sums: K=%d/%d rows=%d lost=%d",
				shards, kSum, st.K, rowSum, lost)
		}
		got := peekAll(t, c)
		for row := range want {
			for d := range want[row] {
				if got[row][d] != want[row][d] {
					t.Fatalf("shards=%d row %d dim %d = %v, want %v",
						shards, row, d, got[row][d], want[row][d])
				}
			}
		}
	}
}

// TestShardedWorkerCountDeterminism pins the scheduling invariant: with
// real ε-FDP randomness in play, the post-round snapshot must be
// byte-identical at any worker count (per-shard RNG streams are a
// function of seed and shard index alone), and so must every round's
// full RoundStats — it carries counts and modelled device time only.
func TestShardedWorkerCountDeterminism(t *testing.T) {
	workload := randomWorkload(11, 3, 4, 6, 98, 4)
	var ref []byte
	var refStats []RoundStats
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := shardedCfg(4)
		cfg.Epsilon = 1 // real sampling randomness
		cfg.ShardWorkers = workers
		c := newController(t, cfg)
		var stats []RoundStats
		for _, reqs := range workload {
			r, err := c.BeginRound(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range reqs {
				for _, row := range rows {
					if entry, ok, err := r.ServeEntry(row); err != nil {
						t.Fatal(err)
					} else if ok {
						if _, err := r.SubmitGradient(row, entry, 1); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			st, err := r.Finish()
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		blob, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refStats = blob, stats
			continue
		}
		if !bytes.Equal(ref, blob) {
			t.Fatalf("workers=%d produced a different state snapshot", workers)
		}
		if !reflect.DeepEqual(refStats, stats) {
			t.Fatalf("workers=%d round stats differ:\n got %+v\nwant %+v", workers, stats, refStats)
		}
	}
}

// TestShardedSnapshotRoundTrip is the kill-resume criterion: restore a
// sharded snapshot into a fresh controller, continue both for one more
// round, and require bit-identical final state.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	cfg := shardedCfg(4)
	cfg.Epsilon = 1
	workload := randomWorkload(13, 3, 4, 5, 98, 4)
	c1 := newController(t, cfg)
	driveRound(t, c1, workload[0])
	driveRound(t, c1, workload[1])
	blob, err := c1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c2 := newController(t, cfg)
	if err := c2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if c1.Round() != c2.Round() {
		t.Fatalf("restored round %d != %d", c2.Round(), c1.Round())
	}
	driveRound(t, c1, workload[2])
	driveRound(t, c2, workload[2])
	b1, err := c1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("state diverged after restore + identical round")
	}
}

// TestShardedRestoreMismatches pins the clear-error requirements for
// every cross-geometry restore.
func TestShardedRestoreMismatches(t *testing.T) {
	c4 := newController(t, shardedCfg(4))
	blob4, err := c4.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c2 := newController(t, shardedCfg(2))
	if err := c2.Restore(blob4); err == nil {
		t.Error("shard-count mismatch accepted")
	} else if !strings.Contains(err.Error(), "4 shards") || !strings.Contains(err.Error(), "with 2") {
		t.Errorf("mismatch error does not name both counts: %v", err)
	}

	mono := newController(t, shardedCfg(0))
	monoBlob, err := mono.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c4.Restore(monoBlob); err == nil ||
		!strings.Contains(err.Error(), "1 shards") || !strings.Contains(err.Error(), "with 4") {
		t.Errorf("unsharded→sharded restore error does not name both counts: %v", err)
	}
	if err := mono.Restore(blob4); err == nil ||
		!strings.Contains(err.Error(), "4 shards") || !strings.Contains(err.Error(), "with 1") {
		t.Errorf("sharded→unsharded restore error does not name both counts: %v", err)
	}
}

// TestShardedValidation: shard counts the geometry cannot support fail
// in New, not at first use.
func TestShardedValidation(t *testing.T) {
	cfg := shardedCfg(99) // 99 shards > 98 rows
	if _, err := New(cfg); err == nil {
		t.Error("Shards > NumRows accepted")
	}
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative Shards accepted")
	}
}

// TestShardedHideCountDummies: dummy padding requests spread across
// shards and keep the group-privacy ε of the monolithic mode.
func TestShardedHideCountDummies(t *testing.T) {
	cfg := shardedCfg(4)
	cfg.Epsilon = 2
	cfg.HideCount = true
	cfg.MaxFeaturesPerClient = 4
	c := newController(t, cfg)
	monoCfg := cfg
	monoCfg.Shards = 0
	mono := newController(t, monoCfg)
	if c.EffectiveEpsilon() != mono.EffectiveEpsilon() {
		t.Errorf("sharded hide-count ε %v != monolithic %v",
			c.EffectiveEpsilon(), mono.EffectiveEpsilon())
	}
	// Every client pads to the max with dummies.
	reqs := [][]uint64{
		{3, DummyRequest, DummyRequest, DummyRequest},
		{50, 97, DummyRequest, DummyRequest},
	}
	st := driveRound(t, c, reqs)
	if st.K != 8 {
		t.Errorf("public K = %d, want 8 (padded)", st.K)
	}
	kPer := 0
	for _, ps := range st.PerShard {
		kPer += ps.K
	}
	if kPer != 8 {
		t.Errorf("per-shard K sums to %d, want 8", kPer)
	}
}

// TestShardedBatchStateDeterminism: ten identical 2-shard runs driven
// through the batched entry points end in one Snapshot(). A batch holds
// several rows of each shard; they must reach that shard's buffer ORAM
// in request order at any GOMAXPROCS, or the ORAM's state bytes — what
// checkpoints, WAL replay and shard migration ship around — follow the
// scheduler even though the model does not.
func TestShardedBatchStateDeterminism(t *testing.T) {
	script := randomWorkload(17, 4, 8, 8, 98, 4)
	var first []byte
	for run := 0; run < 10; run++ {
		cfg := shardedCfg(2)
		cfg.Epsilon = 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, reqs := range script {
			goldenRound(t, c, reqs)
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = snap
		} else if !bytes.Equal(snap, first) {
			t.Fatalf("run %d: snapshot differs from run 0 (%d vs %d bytes)", run, len(snap), len(first))
		}
	}
}
