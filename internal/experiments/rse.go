package experiments

import (
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
)

// RSERow compares the three stack structures on one benchmark at equal
// capacity: the SVF, the decoupled stack cache (§5.3), and the register
// stack engine (§6).
type RSERow struct {
	Bench string
	// Speedups over the (2+0) baseline.
	SVFSpeedup, SCSpeedup, RSESpeedup float64
	// Steady-state traffic in quadwords (fills + writebacks).
	SVFQW, SCQW, RSEQW uint64
	// Context-switch flush traffic in bytes per switch.
	SVFCtxBytes, SCCtxBytes, RSECtxBytes uint64
	// Failed marks a row whose runs faulted (FaultContinue).
	Failed bool
}

// RSEResult is the three-way structure comparison.
type RSEResult struct {
	Rows []RSERow
	// Mean speedups.
	MeanSVF, MeanSC, MeanRSE float64
}

// RSE runs the three-way comparison: 8KB structures, dual-ported, 16-wide.
func RSE(cfg Config) (*RSEResult, error) {
	cfg.fillDefaults()
	timing, err := cfg.timingGrid(cfg.Benchmarks,
		sim.Options{},
		sim.Options{Policy: pipeline.PolicySVF, StackPorts: 2},
		sim.Options{Policy: pipeline.PolicyStackCache, StackPorts: 2},
		sim.Options{Policy: pipeline.PolicyRSE, StackPorts: 2},
	)
	if err != nil {
		return nil, err
	}
	traffic, err := cfg.trafficGrid(cfg.Benchmarks,
		trafficCol{pipeline.PolicySVF, 8 << 10, CtxSwitchPeriod},
		trafficCol{pipeline.PolicyStackCache, 8 << 10, CtxSwitchPeriod},
		trafficCol{pipeline.PolicyRSE, 8 << 10, CtxSwitchPeriod},
	)
	if err != nil {
		return nil, err
	}
	res := &RSEResult{Rows: make([]RSERow, len(cfg.Benchmarks))}
	var s, c, r []float64
	for b, prof := range cfg.Benchmarks {
		row := RSERow{Bench: prof.ID(), SVFSpeedup: nan, SCSpeedup: nan, RSESpeedup: nan, Failed: true}
		if t, q := timing[b], traffic[b]; complete(t) && complete(q) {
			row = RSERow{
				Bench:      prof.ID(),
				SVFSpeedup: speedup(t[0], t[1]), SCSpeedup: speedup(t[0], t[2]), RSESpeedup: speedup(t[0], t[3]),
				SVFQW: qw(q[0]), SCQW: qw(q[1]), RSEQW: qw(q[2]),
				SVFCtxBytes: q[0].CtxBytes, SCCtxBytes: q[1].CtxBytes, RSECtxBytes: q[2].CtxBytes,
			}
		}
		res.Rows[b] = row
		s = append(s, row.SVFSpeedup)
		c = append(c, row.SCSpeedup)
		r = append(r, row.RSESpeedup)
	}
	res.MeanSVF, res.MeanSC, res.MeanRSE = stats.MeanValid(s), stats.MeanValid(c), stats.MeanValid(r)
	return res, nil
}

// Table renders the three-way comparison.
func (r *RSEResult) Table() *stats.Table {
	t := stats.NewTable("benchmark",
		"svf speedup", "stack$ speedup", "rse speedup",
		"svf QW", "stack$ QW", "rse QW",
		"svf B/ctx", "stack$ B/ctx", "rse B/ctx")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		if row.Failed {
			t.AddRow(row.Bench, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(row.Bench,
			pct(row.SVFSpeedup), pct(row.SCSpeedup), pct(row.RSESpeedup),
			row.SVFQW, row.SCQW, row.RSEQW,
			row.SVFCtxBytes, row.SCCtxBytes, row.RSECtxBytes)
	}
	t.AddRow("average (%)", pct(r.MeanSVF), pct(r.MeanSC), pct(r.MeanRSE), "", "", "", "", "", "")
	return t
}
