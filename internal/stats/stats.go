// Package stats provides the small statistics toolkit shared by the
// characterisation tools, the timing simulator, and the experiment harness:
// histograms, time-series samplers, tables, and speedup/aggregation
// helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram over non-negative integer samples.
// Bucket i counts samples in [Bounds[i-1], Bounds[i]); the last bucket is
// unbounded above.
type Histogram struct {
	// Bounds are the ascending upper bounds of each bucket except the
	// overflow bucket.
	Bounds []uint64
	// Counts has len(Bounds)+1 entries; the final entry is the overflow
	// bucket.
	Counts []uint64
	// Total is the number of samples added.
	Total uint64
	// Sum is the sum of all samples, for mean computation.
	Sum uint64
	// Max is the largest sample observed.
	Max uint64
}

// NewHistogram creates a histogram with the given ascending bucket bounds.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	i := sort.Search(len(h.Bounds), func(i int) bool { return v < h.Bounds[i] })
	h.Counts[i]++
	h.Total++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the arithmetic mean of the samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Total)
}

// CumulativeAt returns the fraction of samples strictly below bound, where
// bound must be one of the histogram's bucket bounds (the resolution the
// histogram can answer exactly).
func (h *Histogram) CumulativeAt(bound uint64) float64 {
	if h.Total == 0 {
		return 0
	}
	var c uint64
	for i, b := range h.Bounds {
		if b > bound {
			break
		}
		c += h.Counts[i]
	}
	return float64(c) / float64(h.Total)
}

// Series is a down-sampled time series: it keeps at most Cap points by
// recording every k-th sample, used for Figure 2's stack-depth-over-time
// plots without storing every $sp update.
type Series struct {
	// X and Y are the retained points.
	X, Y []uint64
	// Cap is the maximum number of retained points (0 means unlimited).
	Cap   int
	n     uint64 // samples seen
	every uint64
}

// NewSeries creates a series retaining roughly capacity points.
func NewSeries(capacity int) *Series {
	return &Series{Cap: capacity, every: 1}
}

// Add records the point (x, y), keeping the series within its capacity by
// doubling the sampling stride when full (existing points are thinned).
func (s *Series) Add(x, y uint64) {
	s.n++
	if s.every > 1 && s.n%s.every != 0 {
		return
	}
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	if s.Cap > 0 && len(s.X) >= 2*s.Cap {
		// Thin: keep every other point and double the stride.
		w := 0
		for i := 0; i < len(s.X); i += 2 {
			s.X[w], s.Y[w] = s.X[i], s.Y[i]
			w++
		}
		s.X = s.X[:w]
		s.Y = s.Y[:w]
		s.every *= 2
	}
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.X) }

// Speedup returns the speedup of a configuration over a baseline given their
// cycle counts: baseline/config. Values above 1 mean the configuration is
// faster. Returns 0 for a zero config cycle count.
func Speedup(baselineCycles, configCycles uint64) float64 {
	if configCycles == 0 {
		return 0
	}
	return float64(baselineCycles) / float64(configCycles)
}

// PercentImprovement converts a speedup ratio to the "% improvement" form
// the paper reports (speedup 1.29 → 29%).
func PercentImprovement(speedup float64) float64 { return (speedup - 1) * 100 }

// MeanValid returns the arithmetic mean of the non-NaN entries of xs, or
// NaN if none are valid. Supervised experiment suites use it so a failed
// (NaN-gap) cell drops out of the average instead of poisoning it.
func MeanValid(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
