// Package metrics provides the small statistical toolkit the experiment
// harness uses to report multi-seed results honestly: summary statistics
// with confidence intervals, geometric means (the paper reports geomean
// bars in Figs 7–9), and histograms for distribution sanity checks.
//
// Paper mapping: the reporting conventions of Sec 6 — geomean bars
// (Figs 7–9), multi-seed mean ± CI. Key invariant: every helper is a
// pure function of its inputs; nothing here mutates the samples it is
// handed.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n−1)
	Min    float64
	Max    float64
	Median float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// (normal approximation; exact enough for reporting at n ≥ 5).
	CI95 float64
}

// Summarize computes a Summary; it errors on empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("metrics: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = 1.96 * s.Std / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}

// String renders "mean ± ci95 [min, max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean, s.CI95, s.Min, s.Max, s.N)
}

// GeoMean computes the geometric mean (the paper's Geomean bars).
// All inputs must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("metrics: empty sample")
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("metrics: geomean needs positive values, got %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Histogram bins xs into `bins` equal-width buckets over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// NewHistogram builds a histogram; it errors on empty input or bins < 1.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 || bins < 1 {
		return nil, errors.New("metrics: histogram needs data and bins")
	}
	h := &Histogram{Min: math.Inf(1), Max: math.Inf(-1), Counts: make([]int, bins)}
	for _, x := range xs {
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
	}
	width := (h.Max - h.Min) / float64(bins)
	for _, x := range xs {
		var b int
		if width > 0 {
			b = int((x - h.Min) / width)
		}
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
	}
	return h, nil
}

// Render draws the histogram as text bars.
func (h *Histogram) Render(width int) string {
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	binW := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%10.3g |%s %d\n", h.Min+float64(i)*binW, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// RelErr is the relative error |a−b| / max(|b|, eps) — used by tests and
// EXPERIMENTS.md tables comparing against paper values.
func RelErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-12 {
		den = 1e-12
	}
	return math.Abs(a-b) / den
}
