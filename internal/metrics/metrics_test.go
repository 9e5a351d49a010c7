package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample stddev of this classic example is ~2.138.
	if math.Abs(s.Std-2.1381) > 0.001 {
		t.Errorf("std = %v", s.Std)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median = %v", s.Median)
	}
	if s.CI95 <= 0 {
		t.Error("no CI")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3.5 || s.Std != 0 || s.CI95 != 0 || s.Median != 3.5 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestSummarizeBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Keep values whose sum cannot overflow float64.
			if !math.IsNaN(x) && math.Abs(x) < 1e300 {
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s, err := Summarize(clean)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", g)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative accepted")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("counts sum = %d", total)
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Error("render has no bars")
	}
	if _, err := NewHistogram(nil, 5); err == nil {
		t.Error("empty accepted")
	}
	// Constant data lands in one bin without dividing by zero.
	h2, err := NewHistogram([]float64{7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Counts[0] != 3 {
		t.Errorf("constant data counts = %v", h2.Counts)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(1, 0); got <= 0 {
		t.Errorf("RelErr near zero = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	s, _ := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String = %q", s.String())
	}
}
