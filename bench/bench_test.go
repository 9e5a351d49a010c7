package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(samples, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if samples[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// The tail percentile is the highest with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Self time removes what the children cover; children running in
// parallel overlap and must be counted once, and a child reaching
// outside its parent only counts for the part inside.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	children := []span{
		{ID: 2, Parent: 1, Start: 110, End: 150},
		{ID: 3, Parent: 1, Start: 130, End: 170}, // overlaps the first by 20
		{ID: 4, Parent: 1, Start: 190, End: 230}, // 30 of it lies outside
		{ID: 5, Parent: 1, Start: 140, End: 145}, // inside the others
	}
	// Covered: [110,170) ∪ [190,200) = 70 of 100.
	if got := selfTime(parent, children); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestLayerSumsFollowParentLinks(t *testing.T) {
	spans := []span{
		{ID: 1, Round: 0, Name: "round", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Round: 0, Name: "fl.serve", Start: 100, End: 400},
		{ID: 3, Parent: 1, Round: 0, Name: "fl.serve", Start: 300, End: 600},
		{ID: 4, Parent: 2, Round: 0, Name: "client.rt.entries", Start: 150, End: 350},
		{ID: 5, Parent: 4, Round: 0, Name: "api.handler.entries", Start: 200, End: 300},
	}
	ix := indexSpans(spans)
	if got := ix.dur("fl.serve"); got != 600 {
		t.Errorf("dur = %d, want 600", got)
	}
	if got := ix.busy("fl.serve"); got != 500 {
		t.Errorf("busy = %d, want 500 (the two serves overlap by 100)", got)
	}
	if got := ix.self("fl."); got != 400 {
		t.Errorf("self(fl.) = %d, want 400 (600 minus the 200 the round trip covers)", got)
	}
	if got := ix.self("client.rt."); got != 100 {
		t.Errorf("self(client.rt.) = %d, want 100", got)
	}
}

// The tracer links a span to the one open on its goroutine, to an
// explicitly named parent, or to the open span it is told to adopt.
func TestTracerParents(t *testing.T) {
	tr := newTracer()
	k := tr.begin("off", 0, "")
	tr.end(k)
	if tr.id(k) != 0 || len(tr.snapshot()) != 0 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.on.Store(true)
	root := tr.begin("cluster.serve", 0, "")
	child := tr.begin("inner", 0, "")
	tr.end(child)
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := tr.begin("member.rt.entries", 0, "cluster.")
		tr.end(k)
		k = tr.begin("api.handler.entries", tr.id(root), "")
		tr.end(k)
		k = tr.begin("orphan", 0, "")
		tr.end(k)
	}()
	<-done
	rootID := tr.id(root)
	tr.end(root)
	want := map[string]int64{
		"cluster.serve": 0, "inner": rootID, "member.rt.entries": rootID,
		"api.handler.entries": rootID, "orphan": 0,
	}
	for _, s := range tr.snapshot() {
		if s.Parent != want[s.Name] {
			t.Errorf("%s: parent %d, want %d", s.Name, s.Parent, want[s.Name])
		}
		if s.End < s.Start {
			t.Errorf("%s: ends before it starts", s.Name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "round_wall_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	zero := metricDef{Name: "failed_op_share", Better: "lower", Bound: 0}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, []float64{100, 101, 102}, []float64{105, 106, 107}, vOK},
		{"slower than the bound", lower, []float64{100, 101, 102}, []float64{115, 116, 117}, vRegression},
		{"faster than the bound", lower, []float64{100, 101, 102}, []float64{80, 81, 82}, vImproved},
		{"higher is better: a drop regresses", higher, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, vRegression},
		{"higher is better: a rise improves", higher, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, vImproved},
		// Baseline segments 30 % apart: a 15 % difference is not resolved.
		{"baseline too noisy", lower, []float64{90, 100, 120}, []float64{114, 115, 116}, vUnresolved},
		{"candidate too noisy", lower, []float64{100, 101, 102}, []float64{95, 115, 130}, vUnresolved},
		// …unless every candidate run beats every baseline run.
		{"noisy but strictly better", lower, []float64{90, 100, 120}, []float64{60, 70, 80}, vImproved},
		{"zero stays zero", zero, []float64{0, 0, 0}, []float64{0, 0, 0}, vOK},
		{"failures appear", zero, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, vRegression},
	} {
		if got, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json must list exactly what the harness emits, with the
// same units, directions and bounds.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("workloads = %v, want %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Errorf("workload %d = %s, want %s", i, names[i], workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef, bounds bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if !bounds {
				w.Bound = 0
			}
			if g != w {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, w)
			}
			if seen[w.Name] {
				t.Errorf("%s: %s listed twice", kind, w.Name)
			}
			seen[w.Name] = true
			if w.Bound > 0.25 {
				t.Errorf("%s: bound %v above the contract's 0.25", w.Name, w.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics, true)
	same("per_layer", bf.PerLayer, tracedMetrics(), false)
	hasSetup := false
	for _, m := range bf.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
}
