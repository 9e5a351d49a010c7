package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// verdict is compare's judgement of one (workload, metric) pair.
type verdict string

const (
	vOK         verdict = "ok"
	vImproved   verdict = "improved"
	vRegression verdict = "REGRESSION"
	// vUnresolved: the segments of one side spread wider than the bound,
	// so a difference of the bound's size cannot be told from noise.
	vUnresolved verdict = "unresolved"
)

// judge compares a metric's per-segment values on the baseline (a) and
// the candidate (b). worse is the share of the baseline's median by
// which the candidate's median is worse (negative = better).
func judge(m metricDef, a, b []float64) (v verdict, worse float64) {
	ma, mb := median(a), median(b)
	switch {
	case ma == 0 && mb == 0:
		return vOK, 0
	case ma == 0:
		// No base for a ratio: any move off zero in the bad direction is
		// a regression (failed_op_share).
		if (m.Better == "lower") == (mb > 0) {
			return vRegression, 1
		}
		return vImproved, -1
	}
	worse = (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		// Still decidable when every candidate run beats every baseline run.
		if worse < 0 && allBetter(m, a, b) {
			return vImproved, worse
		}
		return vUnresolved, worse
	}
	switch {
	case worse > m.Bound:
		return vRegression, worse
	case worse < -m.Bound:
		return vImproved, worse
	}
	return vOK, worse
}

func allBetter(m metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %d, this build reads %d", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

// compareMain implements `bench compare a.json b.json`: one row per
// (workload, metric) with both values and the ratio with its base;
// non-zero exit on a regression.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "../BENCHMARK.json", "BENCHMARK.json whose bounds and directions apply")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] baseline.json candidate.json")
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err == nil {
		var b *results
		if b, err = loadResults(fs.Arg(1)); err == nil {
			var bf *benchmarkFile
			if bf, err = loadBenchmarkFile(*specPath); err == nil {
				return compareResults(a, b, bf)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareResults(a, b *results, bf *benchmarkFile) int {
	// BENCHMARK.json is the authority on the metrics it lists; the
	// workload-scoped ones it cannot carry keep the bounds in spec.go.
	fromFile := map[string]metricDef{}
	for _, m := range bf.EndToEnd {
		fromFile[m.Name] = m
	}
	fmt.Printf("baseline %s (%s)  candidate %s (%s)\n", a.Commit, a.Started, b.Commit, b.Started)
	fmt.Printf("%-14s %-28s %14s %14s %18s  %s\n", "workload", "metric", "baseline", "candidate", "candidate/baseline", "verdict")
	regressions := 0
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range e2eFor(w) {
			if fm, ok := fromFile[m.Name]; ok {
				m = fm
			}
			v, worse := judge(m, wa.SegmentValues[m.Name], wb.SegmentValues[m.Name])
			va, vb := wa.Values[m.Name], wb.Values[m.Name]
			ratio := "n/a (base 0)"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", vb/va, va)
			}
			fmt.Printf("%-14s %-28s %14.6g %14.6g %18s  %s (%+.1f%% worse, bound %.1f%%)\n",
				w, m.Name, va, vb, ratio, v, 100*worse, 100*m.Bound)
			if v == vRegression {
				regressions++
			}
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
