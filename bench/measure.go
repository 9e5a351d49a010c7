package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
)

// segmentConfig is one measured run of one workload in one process.
type segmentConfig struct {
	Workload string
	Seed     int64
	// Rounds > 0 measures exactly that many rounds (counts then repeat
	// exactly for a seed); otherwise rounds run until Seconds have
	// passed.
	Rounds  int
	Seconds float64
	Trace   bool
	// TraceBlock is the length of the alternating untraced/traced blocks
	// of a traced segment (the first block is untraced).
	TraceBlock int
	Geom       geometry
	OutDir     string
	// Setups is how many times set-up is timed (the median is reported).
	Setups       int
	VerifyRounds int
}

const (
	maxSetups   = 40
	setupBudget = 2 * time.Second
	// traceBlock is the benchmark's TraceBlock; it equals the checkpoint
	// cadence so every block holds one checkpoint round.
	traceBlock = 5
)

// warmupRounds are the unmeasured rounds before the window. Three rounds
// fill caches and finish lazy set-up, but the train_* table is small
// enough (4000 rows, ~550 accesses a round) that its ORAM tree keeps
// filling for about ten rounds, each ~20 % slower than steady state;
// oram_serve's 2^20-row tree never fills, so its first rounds already
// are its steady state.
func warmupRounds(workload string) int {
	if workload == wORAMServe {
		return 3
	}
	return 12
}

// check is one verified fact about the program's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// segmentResult is everything one segment measured, raw enough that
// spread and percentiles can be recomputed later.
type segmentResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Traced      bool               `json:"traced"`
	Rounds      int                `json:"rounds"`
	WindowS     float64            `json:"window_s"`
	RoundWallMs []float64          `json:"round_wall_ms"`
	TracedRound []bool             `json:"traced_round,omitempty"`
	SetupS      []float64          `json:"setup_s"`
	VerifyS     float64            `json:"verify_s"`
	Values      map[string]float64 `json:"values"`
	// Counts are the exact integers behind the count metrics, summed over
	// the measured rounds.
	Counts    map[string]int64 `json:"counts"`
	Checks    []check          `json:"checks"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	TraceFile string           `json:"trace_file,omitempty"`
}

// percentile interpolates linearly between order statistics (the
// "type 7" rule); p is in [0, 100].
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it (0 when even p50 does not).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, safe from rounding
			best = p
		}
	}
	return best
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func sdkStats(d *deployment) client.Stats {
	if d.sdk == nil {
		return client.Stats{}
	}
	return d.sdk.Stats()
}

// runDir makes a fresh scratch directory for one set-up: a coordinator
// that found an older checkpoint there would recover it.
func runDir(outDir string, n int) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// timedSetup builds the workload and reports how long that took:
// dataset, controllers, servers and the first connection.
func timedSetup(cfg segmentConfig, n int, tr *tracer) (*deployment, float64, error) {
	dir, err := runDir(cfg.OutDir, n)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := setup(cfg.Workload, env{geom: cfg.Geom, seed: cfg.Seed, dir: dir, tr: tr})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d.onCloseFirst(func() error { return os.RemoveAll(dir) })
	return d, time.Since(start).Seconds(), nil
}

// onCloseFirst registers f to run after every other closer.
func (d *deployment) onCloseFirst(f func() error) {
	d.closers = append([]func() error{f}, d.closers...)
}

// runSegment measures one workload: set-up, warm-up, the closed loop
// (the next round starts when the previous one finishes), then the
// untimed tail — model quality, verification, extra set-ups.
func runSegment(cfg segmentConfig) (*segmentResult, error) {
	res := &segmentResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Traced: cfg.Trace,
		Values: map[string]float64{}, Counts: map[string]int64{},
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	d, setupS, err := timedSetup(cfg, 0, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", cfg.Workload, err)
	}
	defer d.Close()
	res.SetupS = append(res.SetupS, setupS)

	// Warm-up: unmeasured. The last warm-up round (and the last measured
	// one) does not stage its successor, so no background fetch is in
	// flight when the counters are read.
	warmup := warmupRounds(cfg.Workload)
	for i := 0; i < warmup; i++ {
		res.Attempted++
		if _, err := d.round(i < warmup-1); err != nil {
			return nil, fmt.Errorf("%s: warm-up round %d: %w", cfg.Workload, i, err)
		}
	}

	w := &window{cfg: cfg, d: d, tr: tr}
	if err := w.run(res); err != nil {
		return nil, err
	}

	// Untimed tail.
	if d.trainer != nil {
		auc, err := d.trainer.EvaluateAUC()
		if err != nil {
			return nil, fmt.Errorf("%s: evaluate: %w", cfg.Workload, err)
		}
		res.Values["final_auc"] = auc
	}
	if tr != nil {
		if err := w.layerMetrics(res); err != nil {
			return nil, err
		}
		res.TraceFile = filepath.Join(cfg.OutDir, cfg.Workload+".trace.json")
		if err := writeTrace(res.TraceFile, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", cfg.Workload, err)
	}

	// Set-up again, timed: the median of many is steadier than the first
	// (cold) one alone. Set-ups here take 0.3–30 ms, so keep going past
	// the minimum count while the time budget lasts.
	again := time.Now()
	for n := 1; cfg.Setups > 1 && (n < cfg.Setups || (n < maxSetups && time.Since(again) < setupBudget)); n++ {
		d2, s, err := timedSetup(cfg, n, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: setup %d: %w", cfg.Workload, n, err)
		}
		res.SetupS = append(res.SetupS, s)
		if err := d2.Close(); err != nil {
			return nil, err
		}
	}
	res.Values["setup_s"] = median(res.SetupS)

	vStart := time.Now()
	if err := verify(cfg, res); err != nil {
		return nil, err
	}
	res.VerifyS = time.Since(vStart).Seconds()
	res.Values["verify_s"] = res.VerifyS
	for _, c := range res.Checks {
		res.Attempted++
		if !c.OK {
			res.Failed++
		}
	}
	res.Values["failed_op_share"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// window is the measured part of a segment, and what run leaves behind
// for layerMetrics.
type window struct {
	cfg segmentConfig
	d   *deployment
	tr  *tracer

	// The recorded shape the kernel replay reproduces.
	meanK, meanKSampled float64
	// Traced segments only: the SDK's counters over the traced rounds,
	// the WAL's growth per round, and the fsync count when the window
	// opened.
	sdkTraced    client.Stats
	tracedRounds int
	walGrowth    []float64
	fsyncs0      uint64
}

// addSDK accumulates the SDK counters the client layer reports.
func addSDK(a *client.Stats, after, before client.Stats) {
	a.Requests += after.Requests - before.Requests
	a.Retries += after.Retries - before.Retries
	a.BytesSent += after.BytesSent - before.BytesSent
	a.BytesReceived += after.BytesReceived - before.BytesReceived
}

func (w *window) fsyncs() uint64 {
	var n uint64
	for _, c := range w.d.ctrls {
		for _, rep := range c.StorageReports() {
			n += rep.Fsyncs
		}
	}
	return n
}

func (w *window) walSize() int64 {
	if w.d.mgr == nil {
		return 0
	}
	st, err := os.Stat(w.d.mgr.WALPath())
	if err != nil {
		return 0
	}
	return st.Size()
}

// run drives the closed loop and fills the end-to-end values.
func (w *window) run(res *segmentResult) error {
	d, cfg := w.d, w.cfg
	var sum roundStats
	w.fsyncs0 = w.fsyncs()
	ssd0, sdk0 := d.ssd(), sdkStats(d)
	var dev0 devTotals
	if w.tr != nil {
		dev0 = w.tr.devTotals(devSSD)
	}
	alloc0, cpu0 := totalAllocMB(), cpuSeconds()
	start := time.Now()
	for i := 0; ; i++ {
		var last bool
		if cfg.Rounds > 0 {
			last = i == cfg.Rounds-1
		} else {
			last = time.Since(start).Seconds() >= cfg.Seconds
		}
		traced := w.tr != nil && (i/cfg.TraceBlock)%2 == 1
		var sdkBefore client.Stats
		var k tok
		walBefore := w.walSize()
		if w.tr != nil {
			w.tr.setRound(i)
			w.tr.on.Store(traced)
			sdkBefore = sdkStats(d)
			k = w.tr.begin("round", 0, "")
		}
		res.Attempted++
		t0 := time.Now()
		st, err := d.round(!last)
		wall := float64(time.Since(t0).Nanoseconds()) / 1e6
		if w.tr != nil {
			w.tr.end(k)
			w.tr.on.Store(false)
		}
		if err != nil {
			return fmt.Errorf("%s: measured round %d: %w", cfg.Workload, i, err)
		}
		res.RoundWallMs = append(res.RoundWallMs, wall)
		sum.K += st.K
		sum.KSampled += st.KSampled
		sum.Epsilon += st.Epsilon
		sum.Trained += st.Trained
		sum.DroppedSamples += st.DroppedSamples
		sum.UnavailableRows += st.UnavailableRows
		if w.tr != nil {
			res.TracedRound = append(res.TracedRound, traced)
			if traced {
				w.tracedRounds++
				addSDK(&w.sdkTraced, sdkStats(d), sdkBefore)
			}
			if g := w.walSize() - walBefore; g > 0 {
				w.walGrowth = append(w.walGrowth, float64(g))
			}
		}
		if last {
			break
		}
	}
	res.WindowS = time.Since(start).Seconds()
	cpu, alloc := cpuSeconds()-cpu0, totalAllocMB()-alloc0
	ssd1, sdk1 := d.ssd(), sdkStats(d)
	n := float64(len(res.RoundWallMs))
	res.Rounds = len(res.RoundWallMs)

	v := res.Values
	v["rounds_per_s"] = n / res.WindowS
	v["round_wall_ms_p50"] = percentile(res.RoundWallMs, 50)
	v["round_wall_ms_p90"] = percentile(res.RoundWallMs, 90)
	v["cpu_s_per_round"] = cpu / n
	v["alloc_mb_per_round"] = alloc / n
	v["peak_rss_mb"] = peakRSSMB()
	c := res.Counts
	c["ssd_write_bytes"] = int64(ssd1.BytesWritten - ssd0.BytesWritten)
	c["ssd_read_bytes"] = int64(ssd1.BytesRead - ssd0.BytesRead)
	c["sdk_bytes_sent"] = int64(sdk1.BytesSent - sdk0.BytesSent)
	c["sdk_bytes_received"] = int64(sdk1.BytesReceived - sdk0.BytesReceived)
	c["sdk_requests"] = int64(sdk1.Requests - sdk0.Requests)
	c["sdk_retries"] = int64(sdk1.Retries - sdk0.Retries)
	c["sdk_shed"] = int64(sdk1.Shed - sdk0.Shed)
	c["sdk_failures"] = int64(sdk1.Failures - sdk0.Failures)
	c["k"], c["k_sampled"] = int64(sum.K), int64(sum.KSampled)
	c["trained_samples"], c["dropped_samples"] = int64(sum.Trained), int64(sum.DroppedSamples)
	c["unavailable_rows"] = int64(sum.UnavailableRows)
	v["ssd_write_bytes_per_round"] = float64(c["ssd_write_bytes"]) / n
	v["ssd_read_bytes_per_round"] = float64(c["ssd_read_bytes"]) / n
	v["wire_bytes_per_round"] = float64(c["sdk_bytes_sent"]+c["sdk_bytes_received"]) / n
	v["accesses_per_request"] = float64(sum.KSampled) / float64(sum.K)
	v["round_epsilon"] = sum.Epsilon / n
	if t := sum.Trained + sum.DroppedSamples; t > 0 {
		v["dropped_sample_share"] = float64(sum.DroppedSamples) / float64(t)
	}
	res.Failed += int(c["sdk_failures"]) + sum.UnavailableRows
	w.meanK, w.meanKSampled = float64(sum.K)/n, float64(sum.KSampled)/n

	if w.tr != nil {
		// The decorator's own byte count over the window must equal the
		// controllers' SSDStats: the same traffic seen from two sides.
		dev1 := w.tr.devTotals(devSSD)
		devR, devW := int64(dev1.bytesRead-dev0.bytesRead), int64(dev1.bytesWritten-dev0.bytesWritten)
		res.Checks = append(res.Checks, check{
			Name: "device_bytes_equal_ssd_stats",
			OK:   devR == c["ssd_read_bytes"] && devW == c["ssd_write_bytes"],
			Detail: fmt.Sprintf("decorator read %d written %d; SSDStats read %d written %d",
				devR, devW, c["ssd_read_bytes"], c["ssd_write_bytes"]),
		})
		v["device.ssd_bytes_read"] = float64(devR) / n
		v["device.ssd_bytes_written"] = float64(devW) / n
	}
	return nil
}
