package fedora

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestWorkersBitIdentical: the split main-ORAM read and the streamed
// write-back change where a round's work runs, never what it leaves.
// After each of three rounds the full Snapshot() bytes — the engine
// counters included — and the round stats equal those of a controller
// with ShardWorkers 1, at GOMAXPROCS 1 and 2 (and 4 over two shards,
// two workers each), on simulated and file storage. Every shard reads
// at least two workers' worth of rows a round, so the read splits
// wherever the controller has the CPUs for it.
func TestWorkersBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		procs, shards int
		file          bool
	}{
		{1, 1, false}, {1, 1, true},
		{2, 1, false}, {2, 1, true},
		{4, 2, false}, {4, 2, true},
	} {
		t.Run(fmt.Sprintf("procs=%d/shards=%d/file=%v", tc.procs, tc.shards, tc.file), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			cfg := Config{
				NumRows: 1 << 14, Dim: 4, Epsilon: 1, Encrypt: true, Seed: 5, Shards: tc.shards,
				MaxClientsPerRound: 24 * tc.shards, MaxFeaturesPerClient: 64,
			}
			build := func(shardWorkers int) *Controller {
				c := cfg
				c.ShardWorkers = shardWorkers
				if tc.file {
					c.Storage = fileSpec(t)
				}
				ctrl := newController(t, c)
				t.Cleanup(func() { ctrl.Close() })
				return ctrl
			}
			seq, def := build(1), build(0)
			if want := max(1, tc.procs/tc.shards); def.parts[0].workers != want || seq.parts[0].workers != 1 {
				t.Fatalf("workers: default %d, ShardWorkers 1 %d; want %d and 1", def.parts[0].workers, seq.parts[0].workers, want)
			}
			for i, reqs := range randomWorkload(23, 3, cfg.MaxClientsPerRound, 64, cfg.NumRows, cfg.Dim) {
				a, b := batchRound(t, seq, reqs), batchRound(t, def, reqs)
				for _, s := range b.PerShard {
					if min(s.KSampled, s.KUnion) < 2*512 {
						t.Fatalf("round %d: shard %d reads %d rows, too few to split", i, s.Shard, min(s.KSampled, s.KUnion))
					}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("round %d: stats differ:\nShardWorkers 1 %+v\ndefault        %+v", i, a, b)
				}
				sa, err := seq.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := def.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sa, sb) {
					t.Fatalf("round %d: snapshots differ", i)
				}
			}
		})
	}
}

// batchRound runs one round through the batch calls: each client's rows
// served in one call and a row-derived gradient submitted for each.
func batchRound(t *testing.T, c *Controller, reqs [][]uint64) RoundStats {
	t.Helper()
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range reqs {
		if _, err := r.ServeEntries(rows); err != nil {
			t.Fatal(err)
		}
		grads := make([]RowGradient, len(rows))
		for i, row := range rows {
			grads[i] = RowGradient{Row: row, Grad: []float32{float32(row % 7), 1, -1, 0.5}, Samples: 1}
		}
		if _, err := r.SubmitGradients(grads); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
