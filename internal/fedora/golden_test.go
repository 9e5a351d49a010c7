package fedora

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bufferoram"
)

// The state-bytes goldens: SHA-256 of Controller.Snapshot() after six
// rounds of a fixed seeded request list, recorded at the commit BEFORE
// the ORAM data path was made allocation-free (PR 13's parent). The
// snapshot carries the tree bytes on the device, the stash in id order,
// every bucket counter and every RNG position, so an equal hash proves
// that buffer reuse moved no stored byte, eviction choice or RNG draw.
// A change that moves state layout on purpose re-records these and says
// so in CHANGES.md.
//
// The RAW-backend cases carry a second hash, taken after zeroing the
// tee.Engine work counters (BytesOpened, GroupsOpened, ...), which the
// snapshot also holds. Merged path reads (PR 14) open each bucket once
// per chunk instead of once per access, so the full hashes were
// re-recorded there (5 247 -> 741 groups opened in the sim case); the
// *Stored hashes were recorded on PR 14's parent and did not move: every
// byte but the open counters is where per-access reads left it.
const (
	goldenFedoraState   = "0fb6d9213d92a54bfdb364495db0b6dcca702e0613387805be173fab6652492d"
	goldenLazyDPState   = "a951cfb1593d80ed025c73db5414dbf2e900fbb492dbb1c0b0ed5c52d7264f7d"
	goldenPathPlusState = "5a91b546218eb669a3af31189b66eb71934cdfb952c60d3b8bb2ae91799a6b78"

	goldenFedoraStored = "d13cd9e14fc37948f7e1713116ab5f65a0f8609123e3c37d809cb8d08888155c"
	goldenLazyDPStored = "75585cc9be9c63887ddbe43f277ce988efcccc735bb16f5cee1bb08b7eee1493"
)

func TestGoldenStateBytes(t *testing.T) {
	// BucketBytes 512 and EvictPeriod 16 give a 7-level main tree with an
	// eviction every 16 write-backs, so the six rounds run ~60 evictions
	// whose greedy choices all land in the hash.
	base := Config{
		NumRows: 1024, Dim: 4, Epsilon: 1, Seed: 77,
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 16, LearningRate: 0.5,
		Encrypt: true, HasScratchpad: true, BucketBytes: 512, EvictPeriod: 16,
	}
	for _, tc := range []struct {
		name       string
		want       string
		wantStored string // after c.parts[0].engine.ResetStats(); "" = not checked
		edit       func(t *testing.T, c *Config)
	}{
		{"sim", goldenFedoraState, goldenFedoraStored, func(*testing.T, *Config) {}},
		{"sim-prefetch", goldenFedoraState, goldenFedoraStored, func(_ *testing.T, c *Config) { c.Prefetch = true }},
		{"file", goldenFedoraState, goldenFedoraStored, func(t *testing.T, c *Config) { c.Storage = fileSpec(t) }},
		{"file-prefetch", goldenFedoraState, goldenFedoraStored, func(t *testing.T, c *Config) {
			c.Storage = fileSpec(t)
			c.Prefetch = true
		}},
		{"lazydp", goldenLazyDPState, goldenLazyDPStored, func(_ *testing.T, c *Config) {
			c.Aggregator = bufferoram.LazyDP{Clip: 1, Sigma: 0.1}
		}},
		{"pathoram+", goldenPathPlusState, "", func(_ *testing.T, c *Config) {
			c.Backend = BackendPathORAMPlus
			c.EvictPeriod = 0
		}},
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
			if got, n := snapshotHash(t, c); got != tc.want {
				t.Errorf("snapshot sha256 = %s, want %s (%d bytes)", got, tc.want, n)
			}
			if tc.wantStored == "" {
				return
			}
			t.Logf("tee engine work before reset: %+v", c.parts[0].engine.Stats())
			c.parts[0].engine.ResetStats()
			if got, n := snapshotHash(t, c); got != tc.wantStored {
				t.Errorf("snapshot sha256 without engine counters = %s, want %s (%d bytes)", got, tc.wantStored, n)
			}
		})
	}
}

func snapshotHash(t *testing.T, c *Controller) (string, int) {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	return hex.EncodeToString(sum[:]), len(snap)
}

// goldenRound serves every requested row and submits a row-derived
// gradient with a row-derived sample count, one client at a time.
func goldenRound(t *testing.T, c *Controller, reqs [][]uint64) {
	t.Helper()
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for ci, rows := range reqs {
		if _, err := r.ServeEntries(rows); err != nil {
			t.Fatal(err)
		}
		grads := make([]RowGradient, len(rows))
		for i, row := range rows {
			g := make([]float32, c.cfg.Dim)
			for j := range g {
				g[j] = float32(int(row%11)-5)*0.125 + float32(j+ci)*0.03125
			}
			grads[i] = RowGradient{Row: row, Grad: g, Samples: 1 + int(row%3)}
		}
		if _, err := r.SubmitGradients(grads); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}
