// Package repro's top-level benchmarks regenerate one measurement point
// per paper table/figure (run the cmd/fedora-bench and cmd/fedora-train
// binaries for the full sweeps) plus microbenchmarks of the core
// primitives. Custom metrics attach the paper's units to each bench:
// lifetime-months, overhead-pct, AUC, etc.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/obliv"
	"repro/internal/pathoram"
	"repro/internal/persist"
	"repro/internal/raworam"
	"repro/internal/ringoram"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/wire"

	"repro/internal/device"
)

// BenchmarkFig3PDF builds the six Eq.3 distributions of Figure 3.
func BenchmarkFig3PDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.Fig3Panels {
			m := fdp.Mechanism{Epsilon: p.Epsilon, Shape: p.Shape}
			if _, err := m.Distribution(experiments.Fig3K, experiments.Fig3KUnion); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchPerf runs one Small/10K perf point and reports paper metrics.
func benchPerf(b *testing.B, sys experiments.System, w dataset.Workload) experiments.PerfResult {
	b.Helper()
	var last experiments.PerfResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPerf(experiments.PerfConfig{
			Scale: dataset.Scales[0], Updates: 10_000, System: sys,
			Workload: w, Rounds: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// BenchmarkFig7Lifetime measures the Figure 7 point (Small/10K) for
// FEDORA(ε=1) and reports the projected SSD lifetime.
func BenchmarkFig7Lifetime(b *testing.B) {
	res := benchPerf(b, experiments.SysFedoraEps1, dataset.PerfWorkloads[1])
	b.ReportMetric(res.LifetimeMonths(), "lifetime-months")
}

// BenchmarkFig7LifetimePathORAMPlus is the same point for the baseline.
func BenchmarkFig7LifetimePathORAMPlus(b *testing.B) {
	res := benchPerf(b, experiments.SysPathORAMPlus, dataset.PerfWorkloads[1])
	b.ReportMetric(res.LifetimeMonths(), "lifetime-months")
}

// BenchmarkFig8Latency measures the Figure 8 point (Small/10K, FEDORA
// ε=1) and reports the round-overhead percentage.
func BenchmarkFig8Latency(b *testing.B) {
	res := benchPerf(b, experiments.SysFedoraEps1, dataset.PerfWorkloads[1])
	b.ReportMetric(res.OverheadPct(), "overhead-pct")
}

// BenchmarkFig9Cost computes the Figure 9 normalization for the Small
// configuration and reports FEDORA(ε=1)'s relative hardware cost.
func BenchmarkFig9Cost(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig9(experiments.SweepOptions{Quick: true, Rounds: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == experiments.SysFedoraEps1.Name {
				rel = r.Rel.HardwareCost
			}
		}
	}
	b.ReportMetric(100*rel, "hw-cost-pct-of-dram")
}

// BenchmarkFig10Scratchpad measures the scratchpad ablation slowdown.
func BenchmarkFig10Scratchpad(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig10(experiments.SweepOptions{Quick: true, Rounds: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		slow = rows[0].Slowdown
	}
	b.ReportMetric(slow, "no-sram-slowdown-x")
}

// BenchmarkAblationBucketSize measures the Sec 6.6 bucket sweep.
func BenchmarkAblationBucketSize(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBucketAblation(experiments.SweepOptions{Rounds: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		gain = rows[len(rows)-1].LifetimeMonths / rows[0].LifetimeMonths
	}
	b.ReportMetric(gain, "16KB-vs-4KB-lifetime-x")
}

// BenchmarkTable1Accesses runs one FL training round (MovieLens-like,
// ε=1) through the full FEDORA pipeline — the unit of work behind every
// Table 1 cell — and reports the reduced-access percentage.
func BenchmarkTable1Accesses(b *testing.B) {
	cfg := dataset.MovieLensConfig()
	cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 400, 150, 20
	ds := dataset.Generate(cfg)
	tr, err := fl.New(fl.Config{
		Dataset: ds, Dim: 8, Hidden: 16, UsePrivate: true,
		Epsilon: 1.0, ClientsPerRound: 20, LocalLR: 0.1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep fl.RoundReport
	for i := 0; i < b.N; i++ {
		rep, err = tr.RunRound()
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep.K > 0 {
		b.ReportMetric(100*(1-float64(rep.KSampled)/float64(rep.K)), "reduced-accesses-pct")
	}
}

// BenchmarkRoundWorkers compares one FL round end-to-end at Workers=1
// (the old sequential hot path) against a GOMAXPROCS-sized worker pool.
// On multi-core the parallel round's wall clock beats sequential while —
// by construction of the client-order merge — producing bit-identical
// model state for identical seeds (fl.TestWorkerCountDeterminism is the
// correctness side of this claim).
func BenchmarkRoundWorkers(b *testing.B) {
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts = counts[:1] // single-core: nothing to compare against
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := dataset.MovieLensConfig()
			cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 2000, 400, 60
			ds := dataset.Generate(cfg)
			tr, err := fl.New(fl.Config{
				Dataset: ds, Dim: 8, Hidden: 16, UsePrivate: true,
				Epsilon: 1.0, ClientsPerRound: 50, LocalEpochs: 2,
				LocalLR: 0.1, Seed: 1, Workers: w,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rep fl.RoundReport
			for i := 0; i < b.N; i++ {
				rep, err = tr.RunRound()
				if err != nil {
					b.Fatal(err)
				}
			}
			if rep.Timings.Train > 0 {
				b.ReportMetric(float64(rep.Timings.Train.Microseconds()), "train-us/round")
			}
		})
	}
}

// BenchmarkRoundShards sweeps the sharded ORAM engine: the embedding
// table partitioned across S parallel per-shard ORAMs with an S-sized
// worker pool. The oram-read phase (union + ε-FDP sampling + main-ORAM
// reads, all per shard) is the part that scales; ε=0 keeps the model
// bit-identical across shard counts (fl.TestShardedFingerprintIdentity
// is the correctness side of this claim).
func BenchmarkRoundShards(b *testing.B) {
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			cfg := dataset.MovieLensConfig()
			cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 2000, 400, 60
			ds := dataset.Generate(cfg)
			tr, err := fl.New(fl.Config{
				Dataset: ds, Dim: 8, Hidden: 16, UsePrivate: true,
				Epsilon: 0, ClientsPerRound: 50, LocalEpochs: 2,
				LocalLR: 0.1, Seed: 1, Shards: s, ShardWorkers: s,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rep fl.RoundReport
			for i := 0; i < b.N; i++ {
				rep, err = tr.RunRound()
				if err != nil {
					b.Fatal(err)
				}
			}
			if rep.Timings.ORAMRead > 0 {
				b.ReportMetric(float64(rep.Timings.ORAMRead.Microseconds()), "oram-read-us/round")
			}
		})
	}
}

// BenchmarkClientStep measures one client's share of a round on the
// benchmark spine's FL cell — its working set filled from a download,
// two epochs of local SGD, the embedding and MLP deltas — against a
// round that serves preallocated entries, so B/op is the client step's
// own allocation (zero once the worker scratch is warm).
func BenchmarkClientStep(b *testing.B) {
	ds := dataset.Generate(dataset.MovieLensConfig())
	tr, err := fl.New(fl.Config{
		Dataset: ds, Dim: 16, Hidden: 32,
		UsePrivate: true, Epsilon: 1, LocalEpochs: 2, LocalLR: 0.1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	u := &ds.Users[0]
	req := u.Rows(100)
	round := &servedRound{}
	for _, row := range req {
		v, err := tr.Controller().PeekRow(row)
		if err != nil {
			b.Fatal(err)
		}
		round.res = append(round.res, fedora.EntryResult{Row: row, Entry: v, OK: true})
	}
	step := func() {
		if _, err := tr.TrainClient(round, u, req, 1); err != nil {
			b.Fatal(err)
		}
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(len(u.Train)*2), "samples/op")
}

// servedRound is an fl.RoundHandle that serves the same preallocated
// entries to every download and accepts nothing else.
type servedRound struct{ res []fedora.EntryResult }

var errDownloadOnly = errors.New("servedRound: download only")

func (r *servedRound) ServeEntries([]uint64) ([]fedora.EntryResult, error) { return r.res, nil }
func (r *servedRound) ServeEntry(uint64) ([]float32, bool, error)          { return nil, false, errDownloadOnly }
func (r *servedRound) SubmitGradient(uint64, []float32, int) (bool, error) {
	return false, errDownloadOnly
}
func (r *servedRound) SubmitGradients([]fedora.RowGradient) ([]bool, error) {
	return nil, errDownloadOnly
}
func (r *servedRound) Finish() (fedora.RoundStats, error) {
	return fedora.RoundStats{}, errDownloadOnly
}

// --- Core primitive microbenchmarks -----------------------------------

// BenchmarkPathORAMAccess measures one functional Path ORAM access
// (64-byte blocks, encrypted buckets).
func BenchmarkPathORAMAccess(b *testing.B) {
	var key [32]byte
	dev := device.NewDRAM(1 << 30)
	o, err := pathoram.New(pathoram.Config{
		NumBlocks: 1 << 16, BlockSize: 64, Seed: 1, Engine: tee.NewEngine(key),
	}, dev)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Write(uint64(i)&0xFFFF, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAWORAMAOAccess measures one functional AO access + write-back
// pair on FEDORA's main ORAM.
func BenchmarkRAWORAMAOAccess(b *testing.B) {
	var key [32]byte
	ssd := device.NewSSD(1 << 33)
	dram := device.NewDRAM(1 << 30)
	o, err := raworam.New(raworam.Config{
		NumBlocks: 1 << 16, BlockSize: 64, Seed: 1, Engine: tee.NewEngine(key),
	}, ssd, dram)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i) & 0xFFFF
		data, _, err := o.AOAccess(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.WriteBack(id, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAWORAMReadBatch measures a round's download phase on the main
// ORAM at the oram_serve geometry: k = 2048 AO reads of a sealed 2^20-row
// tree whose levels 0-10 are all written, as one merged AOAccessBatch and,
// for comparison, as 2048 single AOAccess calls over the same ids. The
// write-backs that return the blocks between ops are untimed.
func BenchmarkRAWORAMReadBatch(b *testing.B) {
	const (
		rows = 1 << 20
		k    = 2048
		bs   = 64
	)
	for _, merged := range []bool{true, false} {
		name := "single"
		if merged {
			name = "batch"
		}
		b.Run(name, func(b *testing.B) {
			var key [32]byte
			o, err := raworam.New(raworam.Config{
				NumBlocks: rows, BlockSize: bs, Seed: 1, Engine: tee.NewEngine(key), HasScratchpad: true,
			}, device.NewSSD(1<<40), device.NewDRAM(1<<40))
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]uint64, k)
			dst := make([]byte, k*bs)
			var next uint64
			read := func(batch bool) {
				for i := range ids { // 2048 distinct rows, a new set every round
					ids[i] = next % rows
					next += 509
				}
				if batch {
					if _, err := o.AOAccessBatch(ids, dst); err != nil {
						b.Fatal(err)
					}
					return
				}
				for i, id := range ids {
					data, _, err := o.AOAccess(id)
					if err != nil {
						b.Fatal(err)
					}
					copy(dst[i*bs:], data)
				}
			}
			writeBack := func() {
				for i, id := range ids {
					if _, err := o.WriteBack(id, dst[i*bs:(i+1)*bs]); err != nil {
						b.Fatal(err)
					}
				}
			}
			// The g-th eviction writes the path to the g-th leaf in reverse-
			// lexicographic order, so 2^10 evictions write every bucket of
			// levels 0-10. Both variants warm up through the batch, so they
			// time reads of the same tree.
			for o.RootCounter() < 1<<10 {
				read(true)
				writeBack()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(merged)
				b.StopTimer()
				writeBack()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/k, "us/read")
		})
	}
}

// BenchmarkObliviousUnion puts the paper's Θ(K²) linear scan (Sec 4.2,
// obliv.UnionScan) beside the sorting-network union every round runs
// (obliv.Union through a kept scratch, as the controller calls it), from
// the scan's best case to the paper's 16K chunk: the sort replaced the
// scan rather than joining it behind a crossover, and this is where that
// stays checkable.
func BenchmarkObliviousUnion(b *testing.B) {
	for _, k := range []int{32, 256, 3200, 4096, 16384} {
		rng := rand.New(rand.NewSource(1))
		reqs := make([]uint64, k)
		for i := range reqs {
			reqs[i] = uint64(rng.Intn(k/2 + 1))
		}
		b.Run(fmt.Sprintf("scan/K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obliv.UnionScan(reqs)
			}
		})
		b.Run(fmt.Sprintf("sorted/K=%d", k), func(b *testing.B) {
			var s obliv.UnionScratch
			for i := 0; i < b.N; i++ {
				s.Union(reqs)
			}
		})
	}
}

// BenchmarkFDPSample measures drawing k from Eq. 3 at chunk scale.
func BenchmarkFDPSample(b *testing.B) {
	m := fdp.Mechanism{Epsilon: 1}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Sample(fedora.DefaultChunkSize, 8000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRoundPhantom measures one complete phantom-mode FEDORA
// round at 10K updates (the Fig 7/8 measurement unit).
func BenchmarkFullRoundPhantom(b *testing.B) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 10_000_000, Dim: 16, Epsilon: 1,
		MaxClientsPerRound: 100, MaxFeaturesPerClient: 100,
		Seed: 1, Phantom: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := dataset.PerfWorkloads[1]
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := w.GenRound(10_000_000, 100, 100, rng)
		r, err := ctrl.BeginRound(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ORAM design comparison benchmarks ---------------------------------

// BenchmarkORAMComparison contrasts the three tree-ORAM designs on the
// same functional write workload (1024 × 64 B blocks): Path ORAM reads
// and writes whole paths, Ring ORAM reads one slot per bucket, RAW ORAM
// (FL-friendly) writes only on scheduled evictions.
func BenchmarkORAMComparison(b *testing.B) {
	const n, bs = 1024, 64
	data := make([]byte, bs)
	b.Run("pathoram", func(b *testing.B) {
		dev := device.NewDRAM(1 << 31)
		o, err := pathoram.New(pathoram.Config{NumBlocks: n, BlockSize: bs, Seed: 1}, dev)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Write(uint64(i)%n, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ringoram", func(b *testing.B) {
		dev := device.NewDRAM(1 << 31)
		dram := device.NewDRAM(1 << 30)
		o, err := ringoram.New(ringoram.Config{NumBlocks: n, BlockSize: bs, Seed: 1}, dev, dram)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Write(uint64(i)%n, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raworam-flfriendly", func(b *testing.B) {
		ssd := device.NewSSD(1 << 32)
		dram := device.NewDRAM(1 << 30)
		o, err := raworam.New(raworam.Config{NumBlocks: n, BlockSize: bs, Seed: 1}, ssd, dram)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := uint64(i) % n
			d, _, err := o.AOAccess(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := o.WriteBack(id, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSecAggMask measures masking a 1K-float update for a 10-client
// roster.
func BenchmarkSecAggMask(b *testing.B) {
	var key [32]byte
	sess, err := secagg.NewSession(key, 10, 1024)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Mask(i%10, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeRound measures one round of upload encodes at the
// train_cluster shape: a 32-client roster, each masking the whole
// ~560-row × dim-16 union domain (31 pair streams of ~9.5K words) under
// masked-sparse. One op = all 32 payloads, encoded serially.
func BenchmarkWireEncodeRound(b *testing.B) {
	const roster, domainRows, rowsPerClient, dim = 32, 560, 30, 16
	domain := make([]uint64, domainRows)
	for i := range domain {
		domain[i] = uint64(7 * i)
	}
	plan, err := wire.NewPlan(wire.Params{
		Codec: wire.CodecMaskedSparse, NumRows: 7 * domainRows, Dim: dim, Round: 1,
		Roster: roster, SessionKey: wire.DeriveSessionKey(7, 1),
	}, domain)
	if err != nil {
		b.Fatal(err)
	}
	deltas := make([][]float32, rowsPerClient)
	for i := range deltas {
		deltas[i] = make([]float32, dim)
		for j := range deltas[i] {
			deltas[i][j] = 0.01
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < roster; c++ {
			rows := domain[c*17 : c*17+rowsPerClient]
			if _, _, err := plan.Encode(c, rows, deltas, 30); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRecursiveMapLookup measures one fully-recursive position-map
// lookup (two chained ORAM levels over 64K entries).
func BenchmarkRecursiveMapLookup(b *testing.B) {
	dev := device.NewDRAM(1 << 30)
	rm, err := pathoram.NewRecursiveMap(pathoram.RecursiveMapConfig{
		NumBlocks: 1 << 16, NumLeaves: 1 << 14, EntriesPerBlock: 64,
		ThresholdBytes: 4096, Seed: 1,
	}, dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.GetSet(uint64(i)&0xFFFF, uint32(i)&0x3FFF)
	}
}

// --- checkpoint byte path ----------------------------------------------

// checkpointBenchConfig is the train_cluster cell of the benchmark spine
// as the controller sees it: the MovieLens item table at dim 16,
// encrypted, 32 clients × 100 features a round, two shards.
func checkpointBenchConfig() fedora.Config {
	return fedora.Config{
		NumRows: dataset.MovieLensConfig().NumItems, Dim: 16, Epsilon: 1, Encrypt: true,
		MaxClientsPerRound: 32, MaxFeaturesPerClient: 100, LearningRate: 0.1, Seed: 7, Shards: 2,
	}
}

// checkpointBenchRounds fills the ORAM trees the way training does, so
// the snapshot has a steady-state image to carry.
func checkpointBenchRounds(b *testing.B, cfg fedora.Config, begin func([][]uint64) (api.Round, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 10; round++ {
		reqs := make([][]uint64, cfg.MaxClientsPerRound)
		var grads []fedora.RowGradient
		for c := range reqs {
			for j := 0; j < cfg.MaxFeaturesPerClient; j++ {
				row := uint64(rng.Int63n(int64(cfg.NumRows)))
				reqs[c] = append(reqs[c], row)
				grads = append(grads, fedora.RowGradient{Row: row, Grad: make([]float32, cfg.Dim), Samples: 1})
			}
		}
		r, err := begin(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.SubmitGradients(grads); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerSnapshot measures Controller.Snapshot() at the
// train_cluster geometry over both storage backends. B/op against the
// MB/s column's bytes is the copies-per-snapshot-byte figure
// (TestSnapshotAllocatesOnce bounds it at 1.25).
func BenchmarkControllerSnapshot(b *testing.B) {
	for _, kind := range []storage.Kind{storage.KindSim, storage.KindFile} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := checkpointBenchConfig()
			cfg.Storage = storage.Spec{Kind: kind, Dir: b.TempDir()}
			ctrl, err := fedora.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer ctrl.Close()
			checkpointBenchRounds(b, cfg, func(reqs [][]uint64) (api.Round, error) { return ctrl.BeginRound(reqs) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := ctrl.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(blob)))
			}
		})
	}
}

// BenchmarkClusterCheckpoint measures one cluster checkpoint as the
// coordinator's maintenance pass takes it — Snapshot() pulling one
// section from each of two loopback members, then the atomic save and
// prune — at the train_cluster geometry. Members, coordinator and file
// write share the process, so B/op is the whole byte path
// (TestCheckpointAllocBounded bounds it at 4× the blob).
func BenchmarkClusterCheckpoint(b *testing.B) {
	global := checkpointBenchConfig()
	var nodes []cluster.NodeSpec
	for g := 0; g < global.Shards; g++ {
		sub, err := fedora.SliceConfig(global, g, 1)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := fedora.New(sub)
		if err != nil {
			b.Fatal(err)
		}
		defer ctrl.Close()
		srv := httptest.NewServer(api.NewServer(ctrl).Handler())
		defer srv.Close()
		nodes = append(nodes, cluster.NodeSpec{URL: srv.URL, First: g, Count: 1})
	}
	mgr, err := persist.OpenManager(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	co, err := cluster.New(cluster.Config{
		Fedora: global, Nodes: nodes, ProbeInterval: time.Hour,
		Client: client.Config{Timeout: 30 * time.Second, RetrySeed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer co.StopProbes()
	checkpointBenchRounds(b, global, co.BeginRound)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := co.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		cp := persist.NewCheckpoint()
		cp.Put(cluster.CheckpointSection, blob)
		if _, err := mgr.SaveNext(cp, 3); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}

// rowFrameBatch is the /entries batch the spine's trainers ask for: 100
// rows × Dim 16, every third one lost.
func rowFrameBatch() api.RowFrame {
	f := api.RowFrame{Kind: api.FrameEntries, Dim: 16, Entries: make([]fedora.EntryResult, 100)}
	rng := rand.New(rand.NewSource(3))
	for i := range f.Entries {
		f.Entries[i] = fedora.EntryResult{Row: uint64(rng.Int63())}
		if i%3 != 2 {
			v := make([]float32, f.Dim)
			for j := range v {
				v[j] = rng.Float32()*2 - 1
			}
			f.Entries[i].OK, f.Entries[i].Entry = true, v
		}
	}
	return f
}

// BenchmarkRowFrame measures the row frame codec on its own: MB/s of
// frame bytes, and B/op — the reply buffer for encode, the record slice
// plus one backing array for decode.
func BenchmarkRowFrame(b *testing.B) {
	f := rowFrameBatch()
	frame, err := api.AppendRowFrame(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := api.AppendRowFrame(nil, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := api.DecodeRowFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEntriesRoundTrip is one SDK Entries call of 100 rows × Dim 16
// against a loopback api.Server with the round open: request JSON, reply
// frame, both ends' allocations in B/op.
func BenchmarkEntriesRoundTrip(b *testing.B) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1 << 12, Dim: 16, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 1, MaxFeaturesPerClient: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ctrl.Close()
	srv := httptest.NewServer(api.NewServer(ctrl).Handler())
	defer srv.Close()
	sdk, err := client.New(client.Config{BaseURL: srv.URL, BatchSize: 100, RetrySeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]uint64, 100)
	for i := range rows {
		rows[i] = uint64(i * 37)
	}
	ctx := context.Background()
	info, err := sdk.BeginRound(ctx, [][]uint64{rows})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(api.FrameSize(len(rows), 16)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := sdk.Entries(ctx, info.RoundID, rows)
		if err != nil || len(entries) != len(rows) || !entries[0].OK {
			b.Fatalf("%d entries, err %v", len(entries), err)
		}
	}
}
