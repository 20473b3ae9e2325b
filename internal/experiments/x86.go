package experiments

import (
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
	"svf/internal/synth"
)

// X86Row compares one benchmark's Alpha and x86 flavours under the SVF —
// the paper's §7 future-work question, answered.
type X86Row struct {
	Bench string
	// AlphaSpeedup and X86Speedup are SVF(2+2) speedups over the
	// same-flavour baseline.
	AlphaSpeedup, X86Speedup float64
	// RMWs counts the x86 run's partial-word read-modify-writes.
	RMWs uint64
	// AlphaFillQW and X86FillQW are the SVF fill traffics.
	AlphaFillQW, X86FillQW uint64
	// Failed marks a row whose runs faulted (FaultContinue).
	Failed bool
}

// X86Result is the §7 extension experiment.
type X86Result struct {
	Rows []X86Row
	// MeanAlpha and MeanX86 are the average speedups.
	MeanAlpha, MeanX86 float64
}

// X86 runs every benchmark in both flavours and measures how partial-word
// references erode the SVF's advantage.
func X86(cfg Config) (*X86Result, error) {
	cfg.fillDefaults()
	// Rows: every Alpha flavour, then every x86 flavour; columns: the
	// baseline and the SVF(2+2).
	n := len(cfg.Benchmarks)
	profs := make([]*synth.Profile, 2*n)
	for b, alpha := range cfg.Benchmarks {
		profs[b], profs[n+b] = alpha, synth.X86Variant(alpha)
	}
	cells, err := cfg.timingGrid(profs, sim.Options{}, sim.Options{Policy: pipeline.PolicySVF, StackPorts: 2})
	if err != nil {
		return nil, err
	}
	res := &X86Result{Rows: make([]X86Row, n)}
	var a, x []float64
	for b, prof := range cfg.Benchmarks {
		row := X86Row{Bench: prof.ID(), AlphaSpeedup: nan, X86Speedup: nan, Failed: true}
		if alpha, x86 := cells[b], cells[n+b]; complete(alpha) && complete(x86) {
			row = X86Row{
				Bench:        prof.ID(),
				AlphaSpeedup: speedup(alpha[0], alpha[1]), AlphaFillQW: alpha[1].SVFQWIn,
				X86Speedup: speedup(x86[0], x86[1]), X86FillQW: x86[1].SVFQWIn,
				RMWs: x86[1].SVF.SubWordRMWs,
			}
		}
		res.Rows[b] = row
		a = append(a, row.AlphaSpeedup)
		x = append(x, row.X86Speedup)
	}
	res.MeanAlpha, res.MeanX86 = stats.MeanValid(a), stats.MeanValid(x)
	return res, nil
}

// Table renders the x86 comparison.
func (r *X86Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "alpha SVF speedup", "x86 SVF speedup", "x86 RMWs", "alpha fill QW", "x86 fill QW")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		if row.Failed {
			t.AddRow(row.Bench, "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(row.Bench, pct(row.AlphaSpeedup), pct(row.X86Speedup), row.RMWs, row.AlphaFillQW, row.X86FillQW)
	}
	t.AddRow("average (%)", pct(r.MeanAlpha), pct(r.MeanX86), "", "", "")
	return t
}
