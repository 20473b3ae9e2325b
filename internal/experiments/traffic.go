package experiments

import (
	"svf/internal/pipeline"
	"svf/internal/stats"
	"svf/internal/synth"
)

// Table3Row is one benchmark·input's memory traffic at one structure size
// (quadwords, Table 3).
type Table3Row struct {
	Bench string
	// Per size (2KB, 4KB, 8KB): stack cache in/out and SVF in/out.
	SCIn, SCOut, SVFIn, SVFOut [3]uint64
	// Failed marks size columns whose runs faulted (FaultContinue);
	// renderers show those cells as gaps.
	Failed [3]bool
}

// Table3Sizes are the structure capacities compared.
var Table3Sizes = []int{2 << 10, 4 << 10, 8 << 10}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows []Table3Row
	// Insts is the per-run instruction budget (the paper uses ≥1B;
	// compare ratios, not magnitudes).
	Insts int
}

// Table3 measures stack cache vs SVF memory traffic at 2/4/8KB for every
// profile in cfg.Benchmarks; nil: all 17 benchmark·input pairs.
func Table3(cfg Config) (*Table3Result, error) {
	benches := cfg.Benchmarks
	if benches == nil {
		// Table 3 uses every input variant, not one per benchmark.
		benches = synth.BenchmarkInputs()
	}
	cfg.fillDefaults()
	// A stack-cache and an SVF column per size.
	var cols []trafficCol
	for _, size := range Table3Sizes {
		cols = append(cols, trafficCol{pipeline.PolicyStackCache, size, 0}, trafficCol{pipeline.PolicySVF, size, 0})
	}
	cells, err := cfg.trafficGrid(benches, cols...)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Rows: make([]Table3Row, len(benches)), Insts: cfg.TrafficInsts}
	for b, prof := range benches {
		row := &res.Rows[b]
		row.Bench = prof.ID()
		for s := range Table3Sizes {
			sc, svf := cells[b][2*s], cells[b][2*s+1]
			if sc == nil || svf == nil {
				row.Failed[s] = true
				continue
			}
			row.SCIn[s], row.SCOut[s] = sc.In, sc.Out
			row.SVFIn[s], row.SVFOut[s] = svf.In, svf.Out
		}
	}
	return res, nil
}

// Table renders Table 3.
func (r *Table3Result) Table() *stats.Table {
	t := stats.NewTable("benchmark",
		"2K sc-in", "2K svf-in", "2K sc-out", "2K svf-out",
		"4K sc-in", "4K svf-in", "4K sc-out", "4K svf-out",
		"8K sc-in", "8K svf-in", "8K sc-out", "8K svf-out")
	for _, row := range r.Rows {
		cells := []any{row.Bench}
		for s := 0; s < 3; s++ {
			if row.Failed[s] {
				cells = append(cells, "n/a", "n/a", "n/a", "n/a")
				continue
			}
			cells = append(cells, row.SCIn[s], row.SVFIn[s], row.SCOut[s], row.SVFOut[s])
		}
		t.AddRow(cells...)
	}
	return t
}

// Table4Row is one benchmark's per-context-switch writeback traffic in
// bytes (Table 4).
type Table4Row struct {
	Bench string
	// StackCacheBytes and SVFBytes are average bytes written back per
	// context switch (period 400 000 instructions).
	StackCacheBytes, SVFBytes uint64
	// Failed marks a row whose runs faulted (FaultContinue).
	Failed bool
}

// Ratio returns stack-cache bytes over SVF bytes (paper: 3-20×); NaN for a
// failed row.
func (r Table4Row) Ratio() float64 {
	if r.Failed {
		return nan
	}
	return stats.Ratio(float64(r.StackCacheBytes), float64(r.SVFBytes))
}

// Table4Result reproduces Table 4.
type Table4Result struct {
	Rows []Table4Row
}

// CtxSwitchPeriod is the paper's context-switch period in instructions.
const CtxSwitchPeriod = 400_000

// Table4 measures writeback traffic per context switch for 8KB structures.
func Table4(cfg Config) (*Table4Result, error) {
	cfg.fillDefaults()
	cells, err := cfg.trafficGrid(cfg.Benchmarks,
		trafficCol{pipeline.PolicyStackCache, 8 << 10, CtxSwitchPeriod},
		trafficCol{pipeline.PolicySVF, 8 << 10, CtxSwitchPeriod},
	)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Rows: make([]Table4Row, len(cfg.Benchmarks))}
	for b, prof := range cfg.Benchmarks {
		c := cells[b]
		if !complete(c) {
			res.Rows[b] = Table4Row{Bench: prof.ID(), Failed: true}
			continue
		}
		res.Rows[b] = Table4Row{Bench: prof.ID(), StackCacheBytes: c[0].CtxBytes, SVFBytes: c[1].CtxBytes}
	}
	return res, nil
}

// Table renders Table 4.
func (r *Table4Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "stack cache (B/switch)", "SVF (B/switch)", "ratio")
	for _, row := range r.Rows {
		if row.Failed {
			t.AddRow(row.Bench, "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(row.Bench, row.StackCacheBytes, row.SVFBytes, row.Ratio())
	}
	return t
}
