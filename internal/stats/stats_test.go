package stats

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []uint64{5, 9, 10, 99, 100, 999, 1000, 5000} {
		h.Add(v)
	}
	if h.Total != 8 {
		t.Fatalf("Total = %d, want 8", h.Total)
	}
	want := []uint64{2, 2, 2, 2} // [0,10) [10,100) [100,1000) overflow
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Max != 5000 {
		t.Errorf("Max = %d, want 5000", h.Max)
	}
	if got := h.CumulativeAt(100); got != 0.5 {
		t.Errorf("CumulativeAt(100) = %g, want 0.5", got)
	}
	if got := h.CumulativeAt(1000); got != 0.75 {
		t.Errorf("CumulativeAt(1000) = %g, want 0.75", got)
	}
	wantMean := float64(5+9+10+99+100+999+1000+5000) / 8
	if got := h.Mean(); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("Mean = %g, want %g", got, wantMean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.Mean() != 0 || h.CumulativeAt(10) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds should panic")
		}
	}()
	NewHistogram(10, 10)
}

func TestSeriesThinning(t *testing.T) {
	s := NewSeries(64)
	for i := uint64(0); i < 10000; i++ {
		s.Add(i, i*2)
	}
	if s.Len() >= 2*64 {
		t.Errorf("series length %d exceeded 2x capacity", s.Len())
	}
	if s.Len() == 0 {
		t.Fatal("series empty after adds")
	}
	// X must remain sorted after thinning.
	for i := 1; i < s.Len(); i++ {
		if s.X[i] < s.X[i-1] {
			t.Fatalf("series X not sorted at %d", i)
		}
	}
	// Thinning keeps whole points: every retained y is still its x's.
	for i := range s.X {
		if s.Y[i] != 2*s.X[i] {
			t.Fatalf("point %d = (%d, %d), want y = 2x", i, s.X[i], s.Y[i])
		}
	}
}

func TestSpeedupAndPercent(t *testing.T) {
	if got := Speedup(200, 100); got != 2 {
		t.Errorf("Speedup = %g, want 2", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Errorf("Speedup with zero config = %g, want 0", got)
	}
	if got := PercentImprovement(1.29); math.Abs(got-29) > 1e-9 {
		t.Errorf("PercentImprovement(1.29) = %g, want 29", got)
	}
}

func TestMeans(t *testing.T) {
	if got := Ratio(3, 2); got != 1.5 {
		t.Errorf("Ratio(3, 2) = %g, want 1.5", got)
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
}

func TestMeanValid(t *testing.T) {
	nan := math.NaN()
	if got := MeanValid([]float64{1, 2, 3}); got != 2 {
		t.Errorf("MeanValid with no gaps = %g, want 2", got)
	}
	// A NaN gap drops out of the average instead of poisoning it.
	if got := MeanValid([]float64{1, nan, 3}); got != 2 {
		t.Errorf("MeanValid over a gap = %g, want 2", got)
	}
	if got := MeanValid([]float64{nan, nan, 5}); got != 5 {
		t.Errorf("MeanValid with a single valid entry = %g, want 5", got)
	}
	// No valid entries (or no entries at all) yield NaN, not zero: a fully
	// failed column must not render as "no speedup".
	if got := MeanValid([]float64{nan, nan}); !math.IsNaN(got) {
		t.Errorf("MeanValid of all-NaN = %g, want NaN", got)
	}
	if got := MeanValid(nil); !math.IsNaN(got) {
		t.Errorf("MeanValid(nil) = %g, want NaN", got)
	}
	// Negative entries average like any other (Figure 5 has real slowdowns).
	if got := MeanValid([]float64{-2, nan, 4}); got != 1 {
		t.Errorf("MeanValid with negatives = %g, want 1", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("foo", 1.234)
	tb.AddRow("longername", 12345.0)
	out := tb.String()
	if out == "" {
		t.Fatal("empty table output")
	}
	for _, want := range []string{"name", "value", "foo", "1.23", "longername", "12345"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1234.5: "1234",
		56.78:  "56.8",
		1.234:  "1.23",
		-56.78: "-56.8",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%g) = %q, want %q", v, got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
