package fedora

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/fdp"
)

func persistCfg() Config {
	return Config{Epsilon: fdp.EpsilonInfinity, Seed: 31}
}

// TestControllerSnapshotResumeEquivalence is the controller-level
// durability property: snapshot between rounds, run identical
// continuations on the live and restored controllers, and require the
// full table state to match row for row.
func TestControllerSnapshotResumeEquivalence(t *testing.T) {
	a := newController(t, persistCfg())
	runRound(t, a, [][]uint64{{3, 7}, {7, 11, 19}})
	runRound(t, a, [][]uint64{{3, 500}, {600}})

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	continuation := [][][]uint64{
		{{7, 19, 800}, {3}},
		{{11}, {500, 600, 901}},
	}
	for _, reqs := range continuation {
		runRound(t, a, reqs)
	}

	b := newController(t, persistCfg())
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Round() != 2 {
		t.Fatalf("restored round = %d, want 2", b.Round())
	}
	for _, reqs := range continuation {
		runRound(t, b, reqs)
	}

	if a.Round() != b.Round() {
		t.Fatalf("round %d != %d", a.Round(), b.Round())
	}
	for row := uint64(0); row < 1024; row++ {
		ra, err := a.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row %d diverged: %v vs %v", row, ra, rb)
			}
		}
	}
}

func TestControllerSnapshotRefusedMidRound(t *testing.T) {
	c := newController(t, persistCfg())
	r, err := c.BeginRound([][]uint64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(); !errors.Is(err, ErrRoundOpen) {
		t.Fatalf("mid-round snapshot err = %v, want ErrRoundOpen", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("post-round snapshot err = %v", err)
	}
}

func TestControllerRestoreRejectsConfigMismatch(t *testing.T) {
	a := newController(t, persistCfg())
	runRound(t, a, [][]uint64{{1}})
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := persistCfg()
	other.NumRows = 2048
	if err := newController(t, other).Restore(snap); err == nil {
		t.Fatal("NumRows mismatch accepted")
	}

	eps := persistCfg()
	eps.Epsilon = 1.0
	if err := newController(t, eps).Restore(snap); err == nil {
		t.Fatal("Epsilon mismatch accepted")
	}

	if err := newController(t, persistCfg()).Restore(snap[:len(snap)/3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestSnapshotAllocatesOnce: Snapshot builds the blob in place in one
// buffer sized up front — every ORAM and device appends into it — so
// what a snapshot allocates is the blob plus the small sort keys of the
// maps it walks, not a copy per nesting level grown by doubling (≈ 5×
// before SnapshotTo existed). Sharded controllers add the engine
// container around the same path.
func TestSnapshotAllocatesOnce(t *testing.T) {
	base := Config{
		NumRows: 1024, Dim: 4, Epsilon: 1, Seed: 77,
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 16, LearningRate: 0.5,
		Encrypt: true, HasScratchpad: true, BucketBytes: 512, EvictPeriod: 16,
	}
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, c *Config)
	}{
		{"sim", func(*testing.T, *Config) {}},
		{"file", func(t *testing.T, c *Config) { c.Storage = fileSpec(t) }},
		{"sim-2-shards", func(_ *testing.T, c *Config) { c.Shards = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(t, &cfg)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, reqs := range randomWorkload(5, 6, 16, 12, cfg.NumRows, cfg.Dim) {
				goldenRound(t, c, reqs)
			}
			if _, err := c.Snapshot(); err != nil { // warm: the file device's bounce buffer, lazy state
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			blob, err := c.Snapshot()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(blob))*5/4
			t.Logf("snapshot %d bytes, allocated %d (%.2f×)", len(blob), got, float64(got)/float64(len(blob)))
			if got > limit {
				t.Errorf("Snapshot allocated %d bytes for a %d-byte blob, want ≤ %d (1.25×)", got, len(blob), limit)
			}
		})
	}
}
