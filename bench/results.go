package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const resultsSchema = 1

// results is the full set's output file. It keeps every segment's raw
// values and per-round wall samples, so spread and percentiles can be
// recomputed later.
type results struct {
	Schema     int                        `json:"schema"`
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Started    string                     `json:"started"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// Values are the headline numbers: p50/p90 from the wall samples
	// pooled over segments, everything else the median over segments;
	// per-layer values from the traced segment.
	Values map[string]float64 `json:"values"`
	// SegmentValues are each end-to-end metric's per-segment values;
	// Spread is (max − min) / median over them.
	SegmentValues map[string][]float64 `json:"segment_values"`
	Spread        map[string]float64   `json:"spread"`
	// PooledSamples is how many round walls p50/p90 rest on, and
	// TailPercentile the highest percentile that many samples support
	// (at least ten beyond it).
	PooledSamples  int     `json:"pooled_samples"`
	TailPercentile float64 `json:"tail_percentile"`
	// CountsIdentical is the determinism check: every exact count must
	// repeat across segments of one seed.
	CountsIdentical bool             `json:"counts_identical"`
	Segments        []*segmentResult `json:"segments"`
	Traced          *segmentResult   `json:"traced,omitempty"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// exactCounts must repeat exactly across segments of one seed and round
// count. Bytes received are left out: finish replies carry wall-clock
// durations as JSON numbers, whose digits vary by a few bytes a round.
var exactCounts = []string{
	"ssd_write_bytes", "ssd_read_bytes", "sdk_requests", "sdk_bytes_sent",
	"k", "k_sampled", "trained_samples", "dropped_samples",
}

// runChild runs one segment in a fresh process of this binary and reads
// back its full result.
func runChild(o options, workload string, rounds int, trace bool, tag string) (*segmentResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	segFile := filepath.Join(o.outDir, fmt.Sprintf("segment-%s-%s.json", workload, tag))
	defer os.Remove(segFile)
	traceFlag := "0"
	if trace {
		traceFlag = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", "0",
		"-rounds", fmt.Sprint(rounds), "-trace", traceFlag,
		"-out", o.outDir, "-segment-out", segFile)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s segment %s: %w\n%s", workload, tag, err, out)
	}
	b, err := os.ReadFile(segFile)
	if err != nil {
		return nil, err
	}
	var seg segmentResult
	if err := json.Unmarshal(b, &seg); err != nil {
		return nil, fmt.Errorf("%s: %w", segFile, err)
	}
	return &seg, nil
}

// runFullSet is the run protocol: segments interleaved across workloads
// (A B C D A B C D …) so slow drift of the box lands on every workload
// alike, each in a fresh child process; then one traced segment each.
func runFullSet(o options) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	roundsFor := func(w string) int {
		if o.rounds > 0 {
			return o.rounds
		}
		return defaultRounds[w]
	}
	all := &results{
		Schema: resultsSchema, Commit: gitCommit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed,
		Started: time.Now().UTC().Format(time.RFC3339), Workloads: map[string]*workloadResult{},
	}
	for _, w := range names {
		all.Workloads[w] = &workloadResult{}
	}
	for s := 0; s < o.segments; s++ {
		for _, w := range names {
			fmt.Fprintf(os.Stderr, "segment %d/%d %s …\n", s+1, o.segments, w)
			seg, err := runChild(o, w, roundsFor(w), false, fmt.Sprint(s))
			if err != nil {
				return err
			}
			all.Workloads[w].Segments = append(all.Workloads[w].Segments, seg)
		}
	}
	if o.trace != 0 {
		for _, w := range names {
			fmt.Fprintf(os.Stderr, "traced segment %s …\n", w)
			seg, err := runChild(o, w, max(roundsFor(w), 4*traceBlock), true, "traced")
			if err != nil {
				return err
			}
			all.Workloads[w].Traced = seg
		}
	}
	failed := 0
	for _, w := range names {
		wr := all.Workloads[w]
		wr.aggregate(w)
		if !wr.CountsIdentical {
			failed++
		}
		for _, seg := range wr.all() {
			failed += seg.Failed
		}
		printWorkload(w, wr)
	}
	if err := writeJSON(o.results, all); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.results)
	if failed > 0 {
		return fmt.Errorf("%d failed operations or determinism checks", failed)
	}
	return nil
}

// aggregate folds the segments into the workload's headline values.
func (wr *workloadResult) aggregate(workload string) {
	wr.Values, wr.Spread = map[string]float64{}, map[string]float64{}
	wr.SegmentValues = map[string][]float64{}
	var pooled []float64
	for _, seg := range wr.Segments {
		pooled = append(pooled, seg.RoundWallMs...)
	}
	wr.PooledSamples, wr.TailPercentile = len(pooled), tailPercentile(len(pooled))
	for _, m := range e2eFor(workload) {
		var vals []float64
		for _, seg := range wr.Segments {
			vals = append(vals, seg.Values[m.Name])
		}
		wr.SegmentValues[m.Name] = vals
		wr.Values[m.Name] = median(vals)
		wr.Spread[m.Name] = spread(vals)
	}
	if len(pooled) > 0 {
		wr.Values["round_wall_ms_p50"] = percentile(pooled, 50)
		wr.Values["round_wall_ms_p90"] = percentile(pooled, 90)
	}
	// failed_op_share is judged over everything attempted, not as a
	// median that could hide one bad segment.
	var attempted, failed int
	for _, seg := range wr.Segments {
		attempted, failed = attempted+seg.Attempted, failed+seg.Failed
	}
	if attempted > 0 {
		wr.Values["failed_op_share"] = float64(failed) / float64(attempted)
	}
	wr.CountsIdentical = true
	for _, seg := range wr.Segments[min(1, len(wr.Segments)):] {
		for _, name := range exactCounts {
			if seg.Counts[name] != wr.Segments[0].Counts[name] {
				wr.CountsIdentical = false
			}
		}
	}
	if wr.Traced != nil {
		for _, m := range layerMetrics {
			wr.Values[m.Name] = wr.Traced.Values[m.Name]
		}
	}
}

// spread is (max − min) / median: how far apart repeated segments of
// one commit read.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, x := range vals {
		lo, hi = min(lo, x), max(hi, x)
	}
	if m := median(vals); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n%s — %d pooled rounds over %d segments (tail percentile supported: p%g); counts identical: %v\n",
		name, wr.PooledSamples, len(wr.Segments), wr.TailPercentile, wr.CountsIdentical)
	for _, m := range e2eFor(name) {
		fmt.Printf("  %-28s %16.6g %-6s spread %5.1f%%  bound %4.1f%%\n",
			m.Name, wr.Values[m.Name], m.Unit, 100*wr.Spread[m.Name], 100*m.Bound)
	}
	var retries, shed int64
	for _, seg := range wr.Segments {
		retries, shed = retries+seg.Counts["sdk_retries"], shed+seg.Counts["sdk_shed"]
	}
	fmt.Printf("  (beside failed_op_share: %d SDK retries, %d shed)\n", retries, shed)
	for _, seg := range wr.all() {
		for _, c := range seg.Checks {
			if !c.OK {
				fmt.Printf("  FAILED check %s: %s\n", c.Name, c.Detail)
			}
		}
	}
	if wr.Traced == nil {
		return
	}
	for _, m := range layerMetrics {
		fmt.Printf("  %-28s %16.6g %s\n", m.Name, wr.Values[m.Name], m.Unit)
	}
}

// all lists the untraced segments and, when there is one, the traced.
func (wr *workloadResult) all() []*segmentResult {
	segs := append([]*segmentResult(nil), wr.Segments...)
	if wr.Traced != nil {
		segs = append(segs, wr.Traced)
	}
	return segs
}
