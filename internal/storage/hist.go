package storage

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// hist is a log2-bucketed latency histogram: observation d lands in
// bucket ⌈log2(d in ns)⌉, so 64 buckets cover 1 ns to ~584 years with
// ≤2× relative error per bucket — plenty for storage latencies, at a
// fixed 0.5 KB of memory and O(1) record cost on the I/O hot path.
// Callers synchronize access (File.readMu covers the read histogram,
// File.mu the write one).
type hist struct {
	counts [64]uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bits.Len64(uint64(d))&63]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// percentile returns an upper bound for the q-th percentile (0 < q ≤ 1):
// the upper edge of the bucket holding the q·total-th observation.
func (h *hist) percentile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			edge := time.Duration(1) << uint(i)
			if edge <= 0 || edge > h.max {
				edge = h.max // clamp: the top bucket's edge overstates (or overflows)
			}
			return edge
		}
	}
	return h.max
}

// LatencySummary condenses one operation direction's measured latencies.
type LatencySummary struct {
	Count         uint64
	Mean          time.Duration
	P50, P95, P99 time.Duration
	Max           time.Duration
}

func (h *hist) summary() LatencySummary {
	s := LatencySummary{
		Count: h.total,
		P50:   h.percentile(0.50),
		P95:   h.percentile(0.95),
		P99:   h.percentile(0.99),
		Max:   h.max,
	}
	if h.total > 0 {
		s.Mean = h.sum / time.Duration(h.total)
	}
	return s
}

// Report is one device's real-I/O telemetry, surfaced through
// fedora.Controller.StorageReports, the /metrics endpoint, and
// fedora-train's end-of-run storage report.
type Report struct {
	// Name is the controller's device name ("ssd", "shard3/ssd").
	Name string
	// Backend is the Kind spelling ("sim" or "file").
	Backend string
	// Path is the backing file (file backend only).
	Path string
	// Direct reports whether O_DIRECT is actually active (a request can
	// fall back on filesystems that reject it, e.g. tmpfs).
	Direct bool
	// Fsyncs counts completed fsyncs; DirtyPages is the current
	// un-fsynced write window.
	Fsyncs     uint64
	DirtyPages int
	// Read / Write summarize the measured per-op latencies.
	Read, Write LatencySummary
}

// String renders the report for CLI output, one block per device.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: backend=%s direct=%v fsyncs=%d dirty-pages=%d path=%s\n",
		r.Name, r.Backend, r.Direct, r.Fsyncs, r.DirtyPages, r.Path)
	fmt.Fprintf(&b, "  read : %s\n", r.Read)
	fmt.Fprintf(&b, "  write: %s\n", r.Write)
	return b.String()
}

// String renders one direction's latency summary.
func (s LatencySummary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond/10), s.P50, s.P95, s.P99, s.Max)
}
