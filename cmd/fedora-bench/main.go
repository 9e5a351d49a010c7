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
//	fedora-bench -all              every mode above except -seeds
//
// -quick restricts sweeps to the Small/10K point for a fast smoke run.
// Upload bytes per codec and measured storage latencies are fedora-train
// runs (-upload-codec, -storage file).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/experiments"
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
	)
	flag.Parse()

	opts := experiments.SweepOptions{Quick: *quick, Rounds: *rounds, Seed: *seed}
	any := false
	must := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedora-bench:", err)
			os.Exit(1)
		}
	}

	if *geom || *all {
		any = true
		rows, err := experiments.RunGeometry()
		must(err)
		fmt.Println(experiments.RenderGeometry(rows))
	}
	if *fig3 || *all {
		any = true
		out, err := experiments.RenderFig3()
		must(err)
		fmt.Println(out)
	}
	var sweep []experiments.SweepPoint
	needSweep := *fig7 || *fig8 || *brkdwn || *all
	if needSweep {
		any = true
		var err error
		sweep, err = experiments.RunSweep(opts)
		must(err)
	}
	if *fig7 || *all {
		fmt.Println(experiments.RenderFig7(sweep))
	}
	if needSweep && *csvOut != "" {
		f, err := os.Create(*csvOut)
		must(err)
		must(errors.Join(experiments.WriteSweepCSV(f, sweep), f.Close()))
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
		must(err)
		fmt.Printf("Small/10K FEDORA(e=1) over %d seeds:\n", *seeds)
		fmt.Printf("  lifetime (months): %s\n", sum.Lifetime)
		fmt.Printf("  overhead (s):      %s\n\n", sum.Overhead)
	}
	if *fig9 || *all {
		any = true
		rows, err := experiments.RunFig9(opts)
		must(err)
		fmt.Println(experiments.RenderFig9(rows))
	}
	if *fig10 || *all {
		any = true
		rows, err := experiments.RunFig10(opts)
		must(err)
		fmt.Println(experiments.RenderFig10(rows))
	}
	if *bucket || *all {
		any = true
		rows, err := experiments.RunBucketAblation(opts)
		must(err)
		fmt.Println(experiments.RenderBucketAblation(rows))
	}
	if *evict || *all {
		any = true
		rows, err := experiments.RunEvictPeriodAblation(opts)
		must(err)
		fmt.Println(experiments.RenderEvictPeriodAblation(rows))
	}
	if *chunk || *all {
		any = true
		rows, err := experiments.RunChunkAblation(opts)
		must(err)
		fmt.Println(experiments.RenderChunkAblation(rows))
	}
	if *shape || *all {
		any = true
		rows, err := experiments.RunShapeAblation(opts)
		must(err)
		fmt.Println(experiments.RenderShapeAblation(rows))
	}
	if *sched || *all {
		any = true
		rows, err := experiments.RunScheduleAblation(opts)
		must(err)
		fmt.Println(experiments.RenderScheduleAblation(rows))
	}
	if *family || *all {
		any = true
		rows, err := experiments.RunFamilyAblation(opts)
		must(err)
		fmt.Println(experiments.RenderFamilyAblation(rows))
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}
