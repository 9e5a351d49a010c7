// Command bench is the round-spine benchmark: it drives whole FL rounds
// through four deployment shapes of the FEDORA stack, measures them end
// to end and layer by layer from outside the program, and checks the
// outputs. See README.md for the metric and workload definitions.
//
//	go run . [-workload W] [-segments N] [-rounds N] [-seed N] [-trace 0|1]
//	    the full set: N untraced segments per workload, interleaved, each
//	    in a fresh child process, plus one traced segment per workload;
//	    writes out/results.json and out/<workload>.trace.json.
//	go run . -workload W -seed N -seconds S -trace 0|1
//	    one segment in this process; the last line of standard output is
//	    the result as one JSON object (what BENCHMARK.json's command runs).
//	go run . compare a.json b.json
//	    judges b against baseline a with each metric's direction and bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

// defaultRounds are the full set's measured rounds per segment: ≥100
// pooled rounds per workload over three segments.
var defaultRounds = map[string]int{
	wTrainLocal: 70, wTrainRemote: 70, wTrainCluster: 35, wORAMServe: 34,
}

type options struct {
	workload   string
	segments   int
	rounds     int
	seed       int64
	seconds    float64
	trace      int
	outDir     string
	results    string
	segmentOut string
	single     bool // -seconds was given: run one segment in this process
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	fs.IntVar(&o.segments, "segments", 3, "untraced segments per workload (full set)")
	fs.IntVar(&o.rounds, "rounds", 0, "measured rounds per segment (0 = the workload's default, or run for -seconds)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the dataset, request lists and fl.Config.Seed derive from")
	fs.Float64Var(&o.seconds, "seconds", 0, "run ONE segment in this process, measuring for this long (0 with -rounds = exactly that many rounds)")
	fs.IntVar(&o.trace, "trace", 1, "one segment: 1 = traced; full set: 0 skips the traced segments")
	fs.StringVar(&o.outDir, "out", "out", "directory for results, traces and scratch state")
	fs.StringVar(&o.results, "results", "", "results file of the full set (default <out>/results.json)")
	fs.StringVar(&o.segmentOut, "segment-out", "", "one segment: also write the full segment result here")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seconds" {
			o.single = true
		}
	})
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.results == "" {
		o.results = o.outDir + "/results.json"
	}
	return o, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.single {
		err = runSingle(o)
	} else {
		err = runFullSet(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverResult is the one JSON object a single segment prints last.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSingle measures one segment and prints its metrics: every
// end-to-end metric untraced, every per-layer metric traced.
func runSingle(o options) error {
	if o.workload == "" {
		return fmt.Errorf("-seconds needs -workload")
	}
	cfg := segmentConfig{
		Workload: o.workload, Seed: o.seed, Rounds: o.rounds, Seconds: o.seconds,
		Trace: o.trace != 0, TraceBlock: traceBlock, Geom: fullGeometry(), OutDir: o.outDir,
		Setups: 3, VerifyRounds: 10,
	}
	if cfg.Trace {
		cfg.Setups = 1 // setup_s is an end-to-end metric; the untraced run reports it
	}
	res, err := runSegment(cfg)
	if err != nil {
		return err
	}
	if o.segmentOut != "" {
		if err := writeJSON(o.segmentOut, res); err != nil {
			return err
		}
	}
	out, err := driverOutput(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d: %d rounds in %.2f s (traced: %v)\n", res.Workload, res.Seed, res.Rounds, res.WindowS, res.Traced)
	for _, m := range driverMetrics(res.Traced) {
		fmt.Printf("  %-28s %16.6g %s\n", m.Name, out.Metrics[m.Name].Value, m.Unit)
	}
	for _, c := range res.Checks {
		fmt.Printf("  check %-34s ok=%v %s\n", c.Name, c.OK, c.Detail)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// driverMetrics is what one segment reports: every end-to-end metric
// untraced, every per-layer metric traced.
func driverMetrics(traced bool) []metricDef {
	if traced {
		return tracedMetrics()
	}
	return e2eMetrics
}

// driverOutput shapes a segment's result as the driver's JSON object.
func driverOutput(res *segmentResult) (driverResult, error) {
	out := driverResult{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range driverMetrics(res.Traced) {
		val, ok := res.Values[m.Name]
		if !ok {
			return out, fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: val, Unit: m.Unit}
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
