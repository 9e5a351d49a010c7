package fl

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/recmodel"
	"repro/internal/wire"
)

// The trainer-state goldens: Trainer.Fingerprint (the MLP plus every
// embedding row) and the SHA-256 of Trainer.Snapshot() after eight
// rounds of the benchmark's shared FL cell (full MovieLens geometry,
// dataset seed 7·7919+101, Seed 7, two workers), recorded at the commit
// BEFORE the client step was made allocation-free. They are the oracle
// for the trainer paths no benchmark workload runs: dropout, attention
// pooling, dense features and substituted lost rows. A change that
// moves trainer state on purpose re-records only the affected cells
// and says so in CHANGES.md.
var goldenTrainerCells = []struct {
	name        string
	fingerprint string
	snapshot    string
	edit        func(c *Config)
}{
	{"local", "69155d7216a2559f", "6ac888711e83d695b681fc425cfb46dac9a1ac996864dfdc2d225383e1ad0bf4", func(*Config) {}},
	// Re-recorded when the dropout masks moved to the client's (round
	// seed, client index) stream; before, every round replayed a user's
	// masks (52573b7dedff6ad1 / 3ea9ab62…).
	{"dropout", "78b80082bdfd16d5", "24581f156c39f7f2171a09182e1bed161d90e7b1c58d62651f9f43ae6bd31e89", func(c *Config) { c.Dropout = 0.5 }},
	{"attention", "a47837cd3acf2482", "dbcdf4512efa3e3d6d4681d85c11746c18a3c4c5c4324811c033909b8732e2b4", func(c *Config) { c.Pooling = recmodel.PoolAttention }},
	{"lostdefault-w1", "f05f04fe2d740ff1", "dca7baac347acbf94d86f811d9f1b0118780d923125ceb63135da4d6ab149716", func(c *Config) { c.Lost, c.Workers = LostDefault, 1 }},
	{"dense", "931bc65a13f70e43", "a348644fd6eb847d04fa85de5f1bdd2211d16fc1c8232d7d5dec227cebb8997d", func(c *Config) {
		kc := dataset.DefaultKaggleConfig()
		kc.Seed = 7*7919 + 101
		c.Dataset, c.DenseIn = dataset.GenerateKaggle(kc), kc.DenseDim
	}},
	{"2shard-prefetch-plaintext", "778fcb435c2a964d", "2412073d072d85343b2b8fec1742de067190521e5f5271162cdf1064a95dda4d", func(c *Config) {
		c.Shards, c.Prefetch, c.UploadCodec = 2, true, string(wire.CodecPlaintext)
	}},
	{"2shard-masked-sparse", "778fcb435c2a964d", "39f9aaf7cf6d92a2f97a08087fb19639a62a1c9bd4fc14eda33ab79a4588bf53", func(c *Config) {
		c.Shards, c.UploadCodec = 2, string(wire.CodecMaskedSparse)
	}},
}

// goldenCellConfig is the benchmark's shared FL cell at seed 7.
func goldenCellConfig() Config {
	dc := dataset.MovieLensConfig()
	dc.Seed = 7*7919 + 101
	return Config{
		Dataset: dataset.Generate(dc), Dim: 16, Hidden: 32, UsePrivate: true,
		Epsilon: 1, ClientsPerRound: 32, MaxFeaturesPerClient: 100,
		LocalEpochs: 2, LocalLR: 0.1, Encrypt: true,
		Seed: 7, Workers: 2, ShardWorkers: 2,
	}
}

// runGoldenCell trains eight rounds, staging each next round the way
// the benchmark's closed loop does, and returns the fingerprint and the
// trainer snapshot.
func runGoldenCell(t *testing.T, cfg Config) (uint64, []byte) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for r := 0; r < 8; r++ {
		if _, err := tr.RunRound(); err != nil {
			t.Fatal(err)
		}
		if r < 7 {
			tr.StageNext()
		}
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, tr), snap
}

func TestGoldenTrainerState(t *testing.T) {
	for _, tc := range goldenTrainerCells {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenCellConfig()
			tc.edit(&cfg)
			fp, snap := runGoldenCell(t, cfg)
			if got := snapshotSHA(snap); got != tc.snapshot {
				t.Errorf("snapshot sha256 = %s, want %s", got, tc.snapshot)
			}
			if got := fmt.Sprintf("%016x", fp); got != tc.fingerprint {
				t.Errorf("fingerprint = %s, want %s", got, tc.fingerprint)
			}
		})
	}
}
