package experiments

import (
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
	"svf/internal/synth"
)

// This file evaluates the four stack-stress workload families
// (internal/synth, Families()) the same way Figures 7/9 and Tables 3/4
// evaluate the SPEC profiles: timing speedups of each stack structure over
// the (2+0) baseline, and steady-state plus context-switch traffic. The
// families sit outside the paper's own workload set — they are the
// adversarial regimes (interpreter TOS churn, 10×-capacity recursion,
// coroutine $sp relocation, alloca frames) the SPEC profiles never enter.

// FamilyCtxPeriod is the context-switch period for the family traffic runs:
// far shorter than the paper's 400k so flushes land amid the families' own
// window slides and stack switches.
const FamilyCtxPeriod = 50_000

// FamilyPerfRow holds one family's speedups over the (2+0) baseline.
type FamilyPerfRow struct {
	Bench string
	// SVF21/SVF22: SVF with 1 and 2 dedicated stack ports; SC22: the
	// stack cache at (2+2); RSE: the register stack engine.
	SVF21, SVF22, SC22, RSE float64
	// Failed marks a row whose runs faulted (FaultContinue).
	Failed bool
}

// FamilyPerfResult is the family timing comparison.
type FamilyPerfResult struct {
	Rows []FamilyPerfRow
	// Mean speedups over the families.
	MeanSVF21, MeanSVF22, MeanSC22, MeanRSE float64
}

// FamilyPerf runs the timing comparison over the four families: 8KB
// structures on the 16-wide machine, speedups over the (2+0) baseline.
func FamilyPerf(cfg Config) (*FamilyPerfResult, error) {
	cfg.fillDefaults()
	fams := synth.Families()
	cells, err := cfg.timingGrid(fams,
		sim.Options{DL1Ports: 2},
		sim.Options{DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 1},
		sim.Options{DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 2},
		sim.Options{DL1Ports: 2, Policy: pipeline.PolicyStackCache, StackPorts: 2},
		sim.Options{DL1Ports: 2, Policy: pipeline.PolicyRSE},
	)
	if err != nil {
		return nil, err
	}
	res := &FamilyPerfResult{Rows: make([]FamilyPerfRow, len(fams))}
	var s1, s2, sc, rs []float64
	for b, prof := range fams {
		row := FamilyPerfRow{Bench: prof.ID(), SVF21: nan, SVF22: nan, SC22: nan, RSE: nan, Failed: true}
		if c := cells[b]; complete(c) {
			row = FamilyPerfRow{
				Bench: prof.ID(),
				SVF21: speedup(c[0], c[1]), SVF22: speedup(c[0], c[2]), SC22: speedup(c[0], c[3]), RSE: speedup(c[0], c[4]),
			}
		}
		res.Rows[b] = row
		s1 = append(s1, row.SVF21)
		s2 = append(s2, row.SVF22)
		sc = append(sc, row.SC22)
		rs = append(rs, row.RSE)
	}
	res.MeanSVF21, res.MeanSVF22 = stats.MeanValid(s1), stats.MeanValid(s2)
	res.MeanSC22, res.MeanRSE = stats.MeanValid(sc), stats.MeanValid(rs)
	return res, nil
}

// Table renders the family timing comparison.
func (r *FamilyPerfResult) Table() *stats.Table {
	t := stats.NewTable("family", "svf (2+1)", "svf (2+2)", "stack$ (2+2)", "rse")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		if row.Failed {
			t.AddRow(row.Bench, "n/a", "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(row.Bench, pct(row.SVF21), pct(row.SVF22), pct(row.SC22), pct(row.RSE))
	}
	t.AddRow("average (%)", pct(r.MeanSVF21), pct(r.MeanSVF22), pct(r.MeanSC22), pct(r.MeanRSE))
	return t
}

// FamilyTrafficRow holds one family's steady-state and context-switch
// traffic for each structure.
type FamilyTrafficRow struct {
	Bench string
	// Steady-state quadwords (fills + writebacks) at 4KB and 8KB.
	SC4K, SC8K, SVF4K, SVF8K uint64
	// RSE8K is the register stack engine's quadword traffic at the
	// 8KB-equivalent capacity (1024 registers).
	RSE8K uint64
	// Bytes written back per context switch at the rapid FamilyCtxPeriod.
	SCCtxBytes, SVFCtxBytes, RSECtxBytes uint64
	// Failed marks a row whose runs faulted (FaultContinue).
	Failed bool
}

// FamilyTrafficResult is the family traffic comparison.
type FamilyTrafficResult struct {
	Rows []FamilyTrafficRow
}

// FamilyTraffic measures the families' memory traffic: Table 3-style
// steady-state quadwords at two capacities and Table 4-style flush bytes,
// with context switches every FamilyCtxPeriod instructions so the flush
// machinery runs amid the families' own window slides.
func FamilyTraffic(cfg Config) (*FamilyTrafficResult, error) {
	cfg.fillDefaults()
	fams := synth.Families()
	cells, err := cfg.trafficGrid(fams,
		trafficCol{pipeline.PolicyStackCache, 4 << 10, FamilyCtxPeriod},
		trafficCol{pipeline.PolicyStackCache, 8 << 10, FamilyCtxPeriod},
		trafficCol{pipeline.PolicySVF, 4 << 10, FamilyCtxPeriod},
		trafficCol{pipeline.PolicySVF, 8 << 10, FamilyCtxPeriod},
		trafficCol{pipeline.PolicyRSE, 8 << 10, FamilyCtxPeriod},
	)
	if err != nil {
		return nil, err
	}
	res := &FamilyTrafficResult{Rows: make([]FamilyTrafficRow, len(fams))}
	for b, prof := range fams {
		c := cells[b]
		if !complete(c) {
			res.Rows[b] = FamilyTrafficRow{Bench: prof.ID(), Failed: true}
			continue
		}
		res.Rows[b] = FamilyTrafficRow{
			Bench: prof.ID(),
			SC4K:  qw(c[0]), SC8K: qw(c[1]), SVF4K: qw(c[2]), SVF8K: qw(c[3]), RSE8K: qw(c[4]),
			SCCtxBytes: c[1].CtxBytes, SVFCtxBytes: c[3].CtxBytes, RSECtxBytes: c[4].CtxBytes,
		}
	}
	return res, nil
}

// Table renders the family traffic comparison.
func (r *FamilyTrafficResult) Table() *stats.Table {
	t := stats.NewTable("family",
		"stack$ 4K QW", "stack$ 8K QW", "svf 4K QW", "svf 8K QW", "rse QW",
		"stack$ B/ctx", "svf B/ctx", "rse B/ctx")
	for _, row := range r.Rows {
		if row.Failed {
			t.AddRow(row.Bench, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(row.Bench,
			row.SC4K, row.SC8K, row.SVF4K, row.SVF8K, row.RSE8K,
			row.SCCtxBytes, row.SVFCtxBytes, row.RSECtxBytes)
	}
	return t
}
