package experiments

import (
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
)

// Fig5Row is one benchmark's Figure 5 speedups: infinite-size, ∞-port SVF
// morphing relative to the same-width baseline.
type Fig5Row struct {
	Bench string
	// Wide4, Wide8, Wide16 are speedups with a perfect predictor.
	Wide4, Wide8, Wide16 float64
	// Gshare16 is the 16-wide speedup with gshare front ends on both
	// sides.
	Gshare16 float64
}

// Fig5Result reproduces Figure 5.
type Fig5Result struct {
	Rows []Fig5Row
	// Mean4, Mean8, Mean16, MeanGshare are the cross-benchmark averages
	// (paper: 11%, 19%, 31%, 25%).
	Mean4, Mean8, Mean16, MeanGshare float64
}

// Fig5 measures the speedup potential of morphing all stack accesses to
// register moves.
func Fig5(cfg Config) (*Fig5Result, error) {
	cfg.fillDefaults()
	// A baseline and an infinite-SVF column per width.
	var opts []sim.Options
	for _, w := range []struct {
		mc   pipeline.MachineConfig
		pred sim.PredictorKind
	}{
		{pipeline.FourWide(), sim.PredPerfect},
		{pipeline.EightWide(), sim.PredPerfect},
		{pipeline.SixteenWide(), sim.PredPerfect},
		{pipeline.SixteenWide(), sim.PredGshare},
	} {
		opts = append(opts,
			sim.Options{Machine: w.mc, Predictor: w.pred},
			sim.Options{Machine: w.mc, Predictor: w.pred, Policy: pipeline.PolicySVF, SVFInfinite: true})
	}
	cells, err := cfg.timingGrid(cfg.Benchmarks, opts...)
	if err != nil {
		return nil, err
	}
	sp, m := speedups(cells, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5}, [2]int{6, 7})
	res := &Fig5Result{Rows: make([]Fig5Row, len(cfg.Benchmarks)), Mean4: m[0], Mean8: m[1], Mean16: m[2], MeanGshare: m[3]}
	for b, prof := range cfg.Benchmarks {
		s := sp[b]
		res.Rows[b] = Fig5Row{Bench: prof.ID(), Wide4: s[0], Wide8: s[1], Wide16: s[2], Gshare16: s[3]}
	}
	return res, nil
}

// Table renders Figure 5.
func (r *Fig5Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "4-wide", "8-wide", "16-wide", "16-wide gshare")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		t.AddRow(row.Bench, pct(row.Wide4), pct(row.Wide8), pct(row.Wide16), pct(row.Gshare16))
	}
	t.AddRow("average (%)", pct(r.Mean4), pct(r.Mean8), pct(r.Mean16), pct(r.MeanGshare))
	return t
}

// Fig6Row is one benchmark's progressive analysis (Figure 6): speedups over
// the 16-wide baseline as constraints are relaxed one at a time.
type Fig6Row struct {
	Bench string
	// L1x2 doubles the DL1 to 128KB; NoAddrCalc removes stack
	// address-computation dependencies; SVF1/SVF2/SVF16 add an 8KB SVF
	// with 1, 2 and 16 ports.
	L1x2, NoAddrCalc, SVF1, SVF2, SVF16 float64
}

// Fig6Result reproduces Figure 6.
type Fig6Result struct {
	Rows                                        []Fig6Row
	MeanL1x2, MeanNoAddr, Mean1, Mean2, Mean16P float64
}

// Fig6 runs the progressive performance analysis on the 16-wide machine.
func Fig6(cfg Config) (*Fig6Result, error) {
	cfg.fillDefaults()
	mc := pipeline.SixteenWide()
	noAddr := mc
	noAddr.NoAddrCalcOp = true
	cells, err := cfg.timingGrid(cfg.Benchmarks,
		sim.Options{Machine: mc},
		sim.Options{Machine: mc, DL1SizeBytes: 128 << 10},
		sim.Options{Machine: noAddr},
		sim.Options{Machine: mc, Policy: pipeline.PolicySVF, StackPorts: 1},
		sim.Options{Machine: mc, Policy: pipeline.PolicySVF, StackPorts: 2},
		sim.Options{Machine: mc, Policy: pipeline.PolicySVF, StackPorts: 16},
	)
	if err != nil {
		return nil, err
	}
	sp, m := speedups(cells, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{0, 4}, [2]int{0, 5})
	res := &Fig6Result{Rows: make([]Fig6Row, len(cfg.Benchmarks)), MeanL1x2: m[0], MeanNoAddr: m[1], Mean1: m[2], Mean2: m[3], Mean16P: m[4]}
	for b, prof := range cfg.Benchmarks {
		s := sp[b]
		res.Rows[b] = Fig6Row{Bench: prof.ID(), L1x2: s[0], NoAddrCalc: s[1], SVF1: s[2], SVF2: s[3], SVF16: s[4]}
	}
	return res, nil
}

// Table renders Figure 6.
func (r *Fig6Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "128KB L1", "no_addr_cal_op", "svf 1p", "svf 2p", "svf 16p")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		t.AddRow(row.Bench, pct(row.L1x2), pct(row.NoAddrCalc), pct(row.SVF1), pct(row.SVF2), pct(row.SVF16))
	}
	t.AddRow("average (%)", pct(r.MeanL1x2), pct(r.MeanNoAddr), pct(r.Mean1), pct(r.Mean2), pct(r.Mean16P))
	return t
}

// Fig7Row is one benchmark's comparison of cache/SVF/stack-cache port
// configurations (Figure 7), as speedups over the (2+0) baseline.
type Fig7Row struct {
	Bench string
	// Base4 is the 4-ported, 4-cycle-latency DL1 baseline (4+0).
	Base4 float64
	// SC22 is the stack cache (2+2); SVF21/SVF22/SVF216 the SVF with 1,
	// 2 and 16 ports beside a 2-ported DL1; NoSquash22 the (2+2) SVF
	// with the collision-free code generator.
	SC22, SVF21, SVF22, SVF216, NoSquash22 float64
}

// Fig7Result reproduces Figure 7.
type Fig7Result struct {
	Rows []Fig7Row
	// Means across benchmarks.
	MeanBase4, MeanSC22, MeanSVF21, MeanSVF22, MeanSVF216, MeanNoSquash float64
}

// Fig7 compares the SVF against the decoupled stack cache and multi-ported
// baselines on the 16-wide machine with 8KB stack structures.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg.fillDefaults()
	mc := pipeline.SixteenWide()
	mcNoSquash := mc
	mcNoSquash.NoSquash = true
	cells, err := cfg.timingGrid(cfg.Benchmarks,
		sim.Options{Machine: mc, DL1Ports: 2},
		sim.Options{Machine: mc, DL1Ports: 4, DL1HitLatency: 4},
		sim.Options{Machine: mc, DL1Ports: 2, Policy: pipeline.PolicyStackCache, StackPorts: 2},
		sim.Options{Machine: mc, DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 1},
		sim.Options{Machine: mc, DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 2},
		sim.Options{Machine: mc, DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 16},
		sim.Options{Machine: mcNoSquash, DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 2},
	)
	if err != nil {
		return nil, err
	}
	sp, m := speedups(cells, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{0, 4}, [2]int{0, 5}, [2]int{0, 6})
	res := &Fig7Result{
		Rows:      make([]Fig7Row, len(cfg.Benchmarks)),
		MeanBase4: m[0], MeanSC22: m[1], MeanSVF21: m[2], MeanSVF22: m[3], MeanSVF216: m[4], MeanNoSquash: m[5],
	}
	for b, prof := range cfg.Benchmarks {
		s := sp[b]
		res.Rows[b] = Fig7Row{Bench: prof.ID(), Base4: s[0], SC22: s[1], SVF21: s[2], SVF22: s[3], SVF216: s[4], NoSquash22: s[5]}
	}
	return res, nil
}

// Table renders Figure 7.
func (r *Fig7Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "(4+0)", "sc(2+2)", "svf(2+1)", "svf(2+2)", "svf(2+16)", "svf(2+2) no_squash")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		t.AddRow(row.Bench, pct(row.Base4), pct(row.SC22), pct(row.SVF21), pct(row.SVF22), pct(row.SVF216), pct(row.NoSquash22))
	}
	t.AddRow("average (%)", pct(r.MeanBase4), pct(r.MeanSC22), pct(r.MeanSVF21), pct(r.MeanSVF22), pct(r.MeanSVF216), pct(r.MeanNoSquash))
	return t
}

// Fig8Row is one benchmark's SVF reference-type breakdown (Figure 8).
type Fig8Row struct {
	Bench string
	// Fractions of all SVF references.
	FastLoads, FastStores, ReroutedLoads, ReroutedStores float64
}

// Morphed returns the total front-end-morphed fraction.
func (r Fig8Row) Morphed() float64 { return r.FastLoads + r.FastStores }

// Fig8Result reproduces Figure 8.
type Fig8Result struct {
	Rows []Fig8Row
	// MeanMorphed is the cross-benchmark morphed fraction (paper: ~86%).
	MeanMorphed float64
}

// Fig8 measures the breakdown of SVF reference types on the (2+2) SVF.
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg.fillDefaults()
	cells, err := cfg.timingGrid(cfg.Benchmarks, sim.Options{
		Machine: pipeline.SixteenWide(), DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 2,
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Rows: make([]Fig8Row, len(cfg.Benchmarks))}
	var morphed []float64
	for b, prof := range cfg.Benchmarks {
		row := Fig8Row{Bench: prof.ID(), FastLoads: nan, FastStores: nan, ReroutedLoads: nan, ReroutedStores: nan}
		if r := cells[b][0]; r != nil {
			st := r.SVF
			total := float64(st.MorphedRefs() + st.ReroutedRefs())
			if total == 0 {
				total = 1
			}
			row.FastLoads = float64(st.MorphedLoads) / total
			row.FastStores = float64(st.MorphedStores) / total
			row.ReroutedLoads = float64(st.ReroutedLoads) / total
			row.ReroutedStores = float64(st.ReroutedStores) / total
		}
		res.Rows[b] = row
		morphed = append(morphed, row.Morphed())
	}
	res.MeanMorphed = stats.MeanValid(morphed)
	return res, nil
}

// Table renders Figure 8.
func (r *Fig8Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "fast loads", "fast stores", "rerouted loads", "rerouted stores", "morphed total")
	for _, row := range r.Rows {
		t.AddRow(row.Bench, row.FastLoads, row.FastStores, row.ReroutedLoads, row.ReroutedStores, row.Morphed())
	}
	t.AddRow("average morphed", "", "", "", "", r.MeanMorphed)
	return t
}

// Fig9Row is one benchmark's actual-SVF speedups (Figure 9).
type Fig9Row struct {
	Bench string
	// SVF11 and SVF12 are (1+1) and (1+2) speedups over the (1+0)
	// baseline; SVF21 and SVF22 are (2+1) and (2+2) over (2+0).
	SVF11, SVF12, SVF21, SVF22 float64
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	Rows []Fig9Row
	// Means (paper: ~50% for 1+1, ~65% for 1+2, ~24% for 2+2).
	Mean11, Mean12, Mean21, Mean22 float64
}

// Fig9 measures the implemented SVF's speedups over baselines with single-
// and dual-ported data caches.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg.fillDefaults()
	mc := pipeline.SixteenWide()
	cells, err := cfg.timingGrid(cfg.Benchmarks,
		sim.Options{Machine: mc, DL1Ports: 1},
		sim.Options{Machine: mc, DL1Ports: 1, Policy: pipeline.PolicySVF, StackPorts: 1},
		sim.Options{Machine: mc, DL1Ports: 1, Policy: pipeline.PolicySVF, StackPorts: 2},
		sim.Options{Machine: mc, DL1Ports: 2},
		sim.Options{Machine: mc, DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 1},
		sim.Options{Machine: mc, DL1Ports: 2, Policy: pipeline.PolicySVF, StackPorts: 2},
	)
	if err != nil {
		return nil, err
	}
	sp, m := speedups(cells, [2]int{0, 1}, [2]int{0, 2}, [2]int{3, 4}, [2]int{3, 5})
	res := &Fig9Result{Rows: make([]Fig9Row, len(cfg.Benchmarks)), Mean11: m[0], Mean12: m[1], Mean21: m[2], Mean22: m[3]}
	for b, prof := range cfg.Benchmarks {
		s := sp[b]
		res.Rows[b] = Fig9Row{Bench: prof.ID(), SVF11: s[0], SVF12: s[1], SVF21: s[2], SVF22: s[3]}
	}
	return res, nil
}

// Table renders Figure 9.
func (r *Fig9Result) Table() *stats.Table {
	t := stats.NewTable("benchmark", "(1+1) vs (1+0)", "(1+2) vs (1+0)", "(2+1) vs (2+0)", "(2+2) vs (2+0)")
	pct := stats.PercentImprovement
	for _, row := range r.Rows {
		t.AddRow(row.Bench, pct(row.SVF11), pct(row.SVF12), pct(row.SVF21), pct(row.SVF22))
	}
	t.AddRow("average (%)", pct(r.Mean11), pct(r.Mean12), pct(r.Mean21), pct(r.Mean22))
	return t
}
