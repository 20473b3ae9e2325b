package experiments

import (
	"fmt"
	"math"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
)

// SweepPoint is one (capacity, ports) design point of the SVF design-space
// sweep, averaged across benchmarks.
type SweepPoint struct {
	// SizeBytes and Ports identify the configuration.
	SizeBytes int
	Ports     int
	// MeanSpeedup is the average speedup over the (2+0) baseline.
	MeanSpeedup float64
	// MeanTrafficQW is the average SVF fill+spill traffic in quadwords.
	MeanTrafficQW float64
}

// SweepResult is the §7 design-space exploration: how much SVF capacity and
// portedness buy, quantifying the paper's closing claim that the SVF
// "boost[s] performance without significant increases in area or
// complexity".
type SweepResult struct {
	Points []SweepPoint
	// Sizes and Ports are the swept axes.
	Sizes []int
	Ports []int
}

// SweepSizes and SweepPorts are the default design-space axes.
var (
	SweepSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
	SweepPorts = []int{1, 2, 4}
)

// Sweep runs the full capacity × ports design space on the 16-wide machine.
func Sweep(cfg Config) (*SweepResult, error) {
	cfg.fillDefaults()
	// Column 0 is the (2+0) baseline; the design points follow, size-major.
	opts := []sim.Options{{Machine: pipeline.SixteenWide(), DL1Ports: 2}}
	for _, size := range SweepSizes {
		for _, ports := range SweepPorts {
			opts = append(opts, sim.Options{
				Machine: pipeline.SixteenWide(), DL1Ports: 2,
				Policy: pipeline.PolicySVF, StackSizeBytes: size, StackPorts: ports,
			})
		}
	}
	cells, err := cfg.timingGrid(cfg.Benchmarks, opts...)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Sizes: SweepSizes, Ports: SweepPorts}
	k := 1
	for _, size := range SweepSizes {
		for _, ports := range SweepPorts {
			var speedups, traffic []float64
			for _, c := range cells {
				qw := nan
				if c[k] != nil {
					qw = float64(c[k].SVFQWIn + c[k].SVFQWOut)
				}
				speedups = append(speedups, speedup(c[0], c[k]))
				traffic = append(traffic, qw)
			}
			res.Points = append(res.Points, SweepPoint{
				SizeBytes:     size,
				Ports:         ports,
				MeanSpeedup:   stats.MeanValid(speedups),
				MeanTrafficQW: stats.MeanValid(traffic),
			})
			k++
		}
	}
	return res, nil
}

// Point returns the sweep point for (sizeBytes, ports), or nil.
func (r *SweepResult) Point(sizeBytes, ports int) *SweepPoint {
	for i := range r.Points {
		if r.Points[i].SizeBytes == sizeBytes && r.Points[i].Ports == ports {
			return &r.Points[i]
		}
	}
	return nil
}

// Table renders the sweep as a capacity × ports grid of % improvements.
func (r *SweepResult) Table() *stats.Table {
	header := []string{"SVF size"}
	for _, p := range r.Ports {
		header = append(header, fmt.Sprintf("%d port(s) speedup", p))
	}
	header = append(header, "traffic QW (2 ports)")
	t := stats.NewTable(header...)
	for _, size := range r.Sizes {
		row := []any{fmt.Sprintf("%dKB", size>>10)}
		var twoPortTraffic float64
		for _, ports := range r.Ports {
			pt := r.Point(size, ports)
			if math.IsNaN(pt.MeanSpeedup) {
				row = append(row, "n/a")
			} else {
				row = append(row, fmt.Sprintf("%+.1f%%", stats.PercentImprovement(pt.MeanSpeedup)))
			}
			if ports == 2 {
				twoPortTraffic = pt.MeanTrafficQW
			}
		}
		if math.IsNaN(twoPortTraffic) {
			row = append(row, "n/a")
		} else {
			row = append(row, fmt.Sprintf("%.0f", twoPortTraffic))
		}
		t.AddRow(row...)
	}
	return t
}
