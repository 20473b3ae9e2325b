package experiments

import (
	"svf/internal/regions"
	"svf/internal/stats"
)

// Fig1Row is one benchmark's memory-reference breakdown (Figure 1),
// normalised to total memory references.
type Fig1Row struct {
	Bench string
	// MemFrac is the fraction of all instructions that access memory.
	MemFrac float64
	// StackSP/StackFP/StackGPR are stack-reference fractions by access
	// method; Global, ROData, Heap the non-stack region fractions.
	StackSP, StackFP, StackGPR  float64
	Global, ROData, Heap, Other float64
}

// StackTotal returns the benchmark's total stack fraction.
func (r Fig1Row) StackTotal() float64 { return r.StackSP + r.StackFP + r.StackGPR }

// Fig1Result reproduces Figure 1.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 measures the run-time memory access distribution by region and
// access method.
func Fig1(cfg Config) (*Fig1Result, error) {
	cfg.fillDefaults()
	chars, err := cfg.charGrid(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{Rows: make([]Fig1Row, len(cfg.Benchmarks))}
	for i, prof := range cfg.Benchmarks {
		c := chars[i][0]
		if c == nil {
			res.Rows[i] = Fig1Row{
				Bench: prof.ID(), MemFrac: nan,
				StackSP: nan, StackFP: nan, StackGPR: nan,
				Global: nan, ROData: nan, Heap: nan, Other: nan,
			}
			continue
		}
		stack := c.StackFrac()
		res.Rows[i] = Fig1Row{
			Bench:    prof.ID(),
			MemFrac:  c.MemFrac(),
			StackSP:  stack * c.MethodFrac(regions.MethodSP),
			StackFP:  stack * c.MethodFrac(regions.MethodFP),
			StackGPR: stack * c.MethodFrac(regions.MethodGPR),
			Global:   c.RegionFrac(regions.RegionGlobal),
			ROData:   c.RegionFrac(regions.RegionROData),
			Heap:     c.RegionFrac(regions.RegionHeap),
			Other:    c.RegionFrac(regions.RegionText) + c.RegionFrac(regions.RegionOther),
		}
	}
	return res, nil
}

// Table renders the Figure 1 data.
func (r *Fig1Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "mem/inst", "stack($sp)", "stack($fp)", "stack($gpr)", "stack(total)", "global", "rdata", "heap")
	var sp, st, mem []float64
	for _, row := range r.Rows {
		t.AddRow(row.Bench, row.MemFrac, row.StackSP, row.StackFP, row.StackGPR, row.StackTotal(), row.Global, row.ROData, row.Heap)
		sp = append(sp, row.StackSP)
		st = append(st, row.StackTotal())
		mem = append(mem, row.MemFrac)
	}
	t.AddRow("average", stats.MeanValid(mem), stats.MeanValid(sp), "", "", stats.MeanValid(st), "", "", "")
	return t
}

// Fig2Series is one benchmark's stack-depth-over-time trace (Figure 2).
type Fig2Series struct {
	Bench string
	// X is the instruction count, Y the stack depth in 64-bit words
	// (1000 units = 8KB, matching the paper's y-axis).
	X, Y []uint64
	// MaxDepthWords is the deepest excursion.
	MaxDepthWords uint64
}

// Fig2Result reproduces Figure 2.
type Fig2Result struct {
	Series []Fig2Series
}

// Fig2 samples the stack depth at every $sp update.
func Fig2(cfg Config) (*Fig2Result, error) {
	cfg.fillDefaults()
	chars, err := cfg.charGrid(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Series: make([]Fig2Series, len(cfg.Benchmarks))}
	for i, prof := range cfg.Benchmarks {
		s := Fig2Series{Bench: prof.ID()}
		if c := chars[i][0]; c != nil {
			s.X, s.Y, s.MaxDepthWords = c.Depth.X, c.Depth.Y, c.MaxDepthWords
		}
		res.Series[i] = s
	}
	return res, nil
}

// Table summarises each series (the full curves are in Series).
func (r *Fig2Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "samples", "max depth (words)", "max depth (KB)", "fits 1000 units")
	for _, s := range r.Series {
		fits := "yes"
		if s.MaxDepthWords > 1000 {
			fits = "no"
		}
		t.AddRow(s.Bench, len(s.X), s.MaxDepthWords, float64(s.MaxDepthWords)*8/1024, fits)
	}
	return t
}

// Fig3Row is one benchmark's offset-from-TOS locality (Figure 3).
type Fig3Row struct {
	Bench string
	// MeanOffsetBytes is the average reference distance from TOS.
	MeanOffsetBytes float64
	// CumAt maps offset bounds (bytes) to the cumulative fraction of
	// stack references within them; bounds follow the histogram's
	// log-scale x-axis.
	Bounds []uint64
	CumAt  []float64
	// Within8KB is the headline statistic (paper: >99% except gcc).
	Within8KB float64
}

// Fig3Result reproduces Figure 3.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 measures the cumulative distribution of stack reference offsets
// from the top of stack.
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg.fillDefaults()
	chars, err := cfg.charGrid(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Rows: make([]Fig3Row, len(cfg.Benchmarks))}
	for i, prof := range cfg.Benchmarks {
		c := chars[i][0]
		if c == nil {
			res.Rows[i] = Fig3Row{Bench: prof.ID(), MeanOffsetBytes: nan, Within8KB: nan}
			continue
		}
		row := Fig3Row{
			Bench:           prof.ID(),
			MeanOffsetBytes: c.MeanOffsetBytes(),
			Within8KB:       c.Within8KB(),
		}
		for _, b := range c.OffsetHist.Bounds {
			row.Bounds = append(row.Bounds, b)
			row.CumAt = append(row.CumAt, c.OffsetHist.CumulativeAt(b))
		}
		res.Rows[i] = row
	}
	return res, nil
}

// Table renders the Figure 3 data.
func (r *Fig3Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "mean offset (B)", "<=64B", "<=256B", "<=1KB", "<=8KB")
	for _, row := range r.Rows {
		at := func(bound uint64) float64 {
			for i, b := range row.Bounds {
				if b == bound {
					return row.CumAt[i]
				}
			}
			// No data — a failed row (or a bound outside the
			// histogram) renders as a gap.
			return nan
		}
		t.AddRow(row.Bench, row.MeanOffsetBytes, at(64), at(256), at(1024), at(8192))
	}
	return t
}
