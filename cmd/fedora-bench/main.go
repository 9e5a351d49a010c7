// Command fedora-bench regenerates the paper's performance figures:
//
//	fedora-bench -fig3             Eq.3 PDFs (Figure 3)
//	fedora-bench -fig7             SSD lifetime sweep (Figure 7)
//	fedora-bench -fig8             round-latency overhead sweep (Figure 8)
//	fedora-bench -fig9             cost/power/energy vs DRAM (Figure 9)
//	fedora-bench -fig10            scratchpad ablation (Figure 10)
//	fedora-bench -ablation-bucket  bucket-size ablation (Sec 6.6)
//	fedora-bench -ablation-evict   eviction-period (A) sweep
//	fedora-bench -ablation-chunk   union chunk-size sweep
//	fedora-bench -ablation-shape   e-FDP shape (Y) sweep
//	fedora-bench -ablation-schedule  FL-friendly vs vanilla RAW ORAM schedule
//	fedora-bench -ablation-family  tree vs shuffling ORAM family (Sec 7)
//	fedora-bench -geometry         derived ORAM configurations (Sec 6.1)
//	fedora-bench -fig8-breakdown   per-phase breakdown of Figure 8
//	fedora-bench -seeds N          multi-seed mean ± CI at Small/10K
//	fedora-bench -storage-compare  sim vs file-backed storage: latency + determinism
//	fedora-bench -wire             upload bytes/round per wire codec (8×32, 16×64)
//	fedora-bench -all              every mode above except -seeds
//
// -quick restricts sweeps to the Small/10K point for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/storage"
	"repro/internal/wire"
)

func main() {
	var (
		fig3   = flag.Bool("fig3", false, "render Figure 3 (e-FDP PDFs)")
		fig7   = flag.Bool("fig7", false, "run Figure 7 (SSD lifetime)")
		fig8   = flag.Bool("fig8", false, "run Figure 8 (latency overhead)")
		fig9   = flag.Bool("fig9", false, "run Figure 9 (cost/power/energy)")
		fig10  = flag.Bool("fig10", false, "run Figure 10 (scratchpad ablation)")
		bucket = flag.Bool("ablation-bucket", false, "run the Sec 6.6 bucket-size ablation")
		evict  = flag.Bool("ablation-evict", false, "sweep the eviction period A")
		chunk  = flag.Bool("ablation-chunk", false, "sweep the union chunk size")
		shape  = flag.Bool("ablation-shape", false, "sweep the e-FDP shape Y")
		sched  = flag.Bool("ablation-schedule", false, "FL-friendly vs vanilla RAW ORAM schedule")
		geom   = flag.Bool("geometry", false, "print the derived ORAM configurations (Sec 6.1)")
		family = flag.Bool("ablation-family", false, "tree vs shuffling ORAM family (Sec 7)")
		all    = flag.Bool("all", false, "run every experiment")
		quick  = flag.Bool("quick", false, "restrict sweeps to the Small/10K point")
		rounds = flag.Int("rounds", 2, "simulated FL rounds per measurement point")
		seed   = flag.Int64("seed", 1, "deterministic seed")
		csvOut = flag.String("csv", "", "also write the Fig 7/8 sweep to this CSV file")
		brkdwn = flag.Bool("fig8-breakdown", false, "per-phase breakdown of Figure 8")
		seeds  = flag.Int("seeds", 0, "multi-seed mode: repeat the Small/10K FEDORA(e=1) point N times and report mean ± CI")

		wireB = flag.Bool("wire", false, "compare upload bytes/round across the wire codecs (plaintext | masked | masked-sparse | subspace) at the 8×32 and 16×64 grids, verifying bit-identical models along the way")

		storCmp       = flag.Bool("storage-compare", false, "run the same FL training over the simulator and the file-backed device; verify bit-identical models and report measured real-I/O latencies")
		storageDir    = flag.String("storage-dir", "", "directory for -storage-compare backing files (default: a fresh temp dir)")
		storageDirect = flag.Bool("storage-direct", false, "request O_DIRECT on backing files (falls back to buffered where unsupported, e.g. tmpfs)")
	)
	flag.Parse()

	opts := experiments.SweepOptions{Quick: *quick, Rounds: *rounds, Seed: *seed}
	any := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fedora-bench:", err)
		os.Exit(1)
	}

	if *geom || *all {
		any = true
		rows, err := experiments.RunGeometry()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderGeometry(rows))
	}
	if *fig3 || *all {
		any = true
		out, err := experiments.RenderFig3()
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	var sweep []experiments.SweepPoint
	needSweep := *fig7 || *fig8 || *brkdwn || *all
	if needSweep {
		any = true
		var err error
		sweep, err = experiments.RunSweep(opts)
		if err != nil {
			fail(err)
		}
	}
	if *fig7 || *all {
		fmt.Println(experiments.RenderFig7(sweep))
	}
	if needSweep && *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteSweepCSV(f, sweep); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *csvOut)
	}
	if *fig8 || *all {
		fmt.Println(experiments.RenderFig8(sweep))
	}
	if (*brkdwn || *all) && needSweep {
		fmt.Println(experiments.RenderFig8Breakdown(sweep))
	}
	if *seeds > 0 {
		any = true
		sum, err := experiments.RunPerfSeeds(experiments.PerfConfig{
			Scale: dataset.Scales[0], Updates: 10000,
			System: experiments.SysFedoraEps1, Workload: dataset.PerfWorkloads[1],
			Rounds: *rounds, Seed: *seed,
		}, *seeds)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Small/10K FEDORA(e=1) over %d seeds:\n", *seeds)
		fmt.Printf("  lifetime (months): %s\n", sum.Lifetime)
		fmt.Printf("  overhead (s):      %s\n\n", sum.Overhead)
	}
	if *fig9 || *all {
		any = true
		rows, err := experiments.RunFig9(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig9(rows))
	}
	if *fig10 || *all {
		any = true
		rows, err := experiments.RunFig10(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig10(rows))
	}
	if *bucket || *all {
		any = true
		rows, err := experiments.RunBucketAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderBucketAblation(rows))
	}
	if *evict || *all {
		any = true
		rows, err := experiments.RunEvictPeriodAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderEvictPeriodAblation(rows))
	}
	if *chunk || *all {
		any = true
		rows, err := experiments.RunChunkAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderChunkAblation(rows))
	}
	if *shape || *all {
		any = true
		rows, err := experiments.RunShapeAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderShapeAblation(rows))
	}
	if *sched || *all {
		any = true
		rows, err := experiments.RunScheduleAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderScheduleAblation(rows))
	}
	if *family || *all {
		any = true
		rows, err := experiments.RunFamilyAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFamilyAblation(rows))
	}
	if *wireB || *all {
		any = true
		// The -csv path is owned by the Fig 7/8 sweep when that runs too.
		csvPath := *csvOut
		if needSweep {
			csvPath = ""
		}
		if err := runWireSweep(*rounds, *seed, *quick, csvPath); err != nil {
			fail(err)
		}
	}
	if *storCmp || *all {
		any = true
		if err := runStorageCompare(*rounds, *seed, *quick, *storageDir, *storageDirect); err != nil {
			fail(err)
		}
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// runWireSweep measures upload bytes/round for every wire codec at two
// embedding geometries — dim×k = 8×32 and 16×64 (k = rows each client
// may request). It doubles as an exactness check: plaintext, masked and
// masked-sparse must land on the same model fingerprint (they encode
// the same fixed-point sums), and at 16×64 a sparse codec must beat the
// full-table masked baseline by ≥5× on bytes — the upload plane's
// acceptance criterion.
func runWireSweep(rounds int, seed int64, quick bool, csvPath string) error {
	if rounds <= 0 {
		rounds = 2
	}
	grids := []struct {
		dim, hidden, k int
	}{
		{8, 16, 32},
		{16, 32, 64},
	}
	codecs := wire.Codecs()

	fmt.Printf("wire upload plane: bytes/round per codec (%d rounds, 50 clients/round)\n\n", rounds)
	var csv strings.Builder
	csv.WriteString("grid,codec,bytes_per_round,vs_masked,auc,fingerprint\n")
	for _, g := range grids {
		cfg := dataset.MovieLensConfig()
		cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 2000, 400, g.k*3/2
		if quick {
			cfg.NumUsers = 150
		}
		ds := dataset.Generate(cfg)
		label := fmt.Sprintf("%dx%d", g.dim, g.k)

		fmt.Printf("grid %s (dim %d, ≤%d rows/client, %d items):\n", label, g.dim, g.k, cfg.NumItems)
		fmt.Printf("  %-14s %14s %11s %8s  %-16s\n", "codec", "bytes/round", "vs masked", "AUC", "fingerprint")
		bytesPer := map[wire.Codec]uint64{}
		fps := map[wire.Codec]uint64{}
		type row struct {
			codec wire.Codec
			auc   float64
		}
		var rows []row
		for _, codec := range codecs {
			tr, err := fl.New(fl.Config{
				Dataset: ds, Dim: g.dim, Hidden: g.hidden, UsePrivate: true,
				Epsilon: 1, ClientsPerRound: 50, MaxFeaturesPerClient: g.k,
				LocalEpochs: 2, LocalLR: 0.1, Seed: seed,
				UploadCodec: string(codec),
			})
			if err != nil {
				return err
			}
			res, err := tr.Run(rounds)
			if err != nil {
				return err
			}
			fp, err := tr.Fingerprint()
			if err != nil {
				return err
			}
			bytesPer[codec] = res.WireBytes / uint64(rounds)
			fps[codec] = fp
			rows = append(rows, row{codec, res.AUC})
		}
		// Exactness: the three exact-sum codecs are bit-identical;
		// subspace is exact only within its selected coordinates.
		for _, codec := range []wire.Codec{wire.CodecMasked, wire.CodecMaskedSparse} {
			if fps[codec] != fps[wire.CodecPlaintext] {
				return fmt.Errorf("grid %s: %s fingerprint %016x != plaintext %016x",
					label, codec, fps[codec], fps[wire.CodecPlaintext])
			}
		}
		for _, r := range rows {
			ratio := float64(bytesPer[wire.CodecMasked]) / float64(bytesPer[r.codec])
			fmt.Printf("  %-14s %14d %10.1fx %8.4f  %016x\n",
				string(r.codec), bytesPer[r.codec], ratio, r.auc, fps[r.codec])
			fmt.Fprintf(&csv, "%s,%s,%d,%.1f,%.4f,%016x\n",
				label, r.codec, bytesPer[r.codec], ratio, r.auc, fps[r.codec])
		}
		fmt.Println()

		// Acceptance: at 16×64 a sparse codec must cut upload bytes ≥5×
		// relative to the full-table masked baseline.
		if g.dim == 16 {
			best := bytesPer[wire.CodecMaskedSparse]
			if b := bytesPer[wire.CodecSubspace]; b < best {
				best = b
			}
			ratio := float64(bytesPer[wire.CodecMasked]) / float64(best)
			if ratio < 5 {
				return fmt.Errorf("grid %s: best sparse codec only %.1fx below masked (want ≥5x)", label, ratio)
			}
			fmt.Printf("  16x64 acceptance: sparse codec is %.1fx below the masked full-table baseline (≥5x required)\n\n", ratio)
		}
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", csvPath)
	}
	return nil
}

// runStorageCompare trains the same FL configuration over both storage
// backends and verifies the tentpole invariant: the backend changes only
// durations, never bytes, so sim and file land on the same model
// fingerprint at equal seed. For the file run it also reports the
// measured (not modelled) per-op latency percentiles of the real I/O.
func runStorageCompare(rounds int, seed int64, quick bool, dir string, direct bool) error {
	cfg := dataset.MovieLensConfig()
	cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 2000, 400, 60
	if quick {
		cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 400, 150, 40
	}
	ds := dataset.Generate(cfg)
	if rounds <= 0 {
		rounds = 2
	}

	specs := []storage.Spec{{Kind: storage.KindSim}}
	fileSpec, err := storage.ParseSpec("file", dir, direct)
	if err != nil {
		return err
	}
	specs = append(specs, fileSpec)

	fmt.Printf("storage backends (MovieLens-like, %d users, %d rounds)\n\n", cfg.NumUsers, rounds)
	fmt.Printf("%8s  %12s  %7s  %18s\n", "backend", "round wall", "AUC", "fingerprint")
	var (
		baseFP  uint64
		baseAUC float64
		reports []storage.Report
	)
	for i, spec := range specs {
		tr, err := fl.New(fl.Config{
			Dataset: ds, Dim: 8, Hidden: 16, UsePrivate: true,
			Epsilon: 1, ClientsPerRound: 50, LocalEpochs: 2,
			LocalLR: 0.1, Seed: seed, Storage: spec,
		})
		if err != nil {
			return err
		}
		res, err := tr.Run(rounds)
		if err != nil {
			tr.Close()
			return err
		}
		fp, err := tr.Fingerprint()
		if err != nil {
			tr.Close()
			return err
		}
		if i == 0 {
			baseFP, baseAUC = fp, res.AUC
		} else if fp != baseFP || res.AUC != baseAUC {
			tr.Close()
			return fmt.Errorf("backend changed the model: %s fingerprint %016x (AUC %v) != sim %016x (AUC %v)",
				spec.Kind, fp, res.AUC, baseFP, baseAUC)
		}
		perRound := res.Elapsed / time.Duration(rounds)
		fmt.Printf("%8s  %12v  %.4f  %16x\n",
			spec.Kind, perRound.Round(time.Microsecond), res.AUC, fp)
		reports = append(reports, tr.Controller().StorageReports()...)
		if err := tr.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("\nmodel bit-identical across backends (fingerprint %016x)\n\n", baseFP)
	fmt.Println("file backend, measured real-I/O latencies:")
	for _, rep := range reports {
		fmt.Print(rep)
	}
	fmt.Println()
	return nil
}
