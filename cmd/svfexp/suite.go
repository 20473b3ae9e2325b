package main

import (
	"strings"

	"svf/internal/experiments"
	"svf/internal/stats"
)

// experiment is one entry of the suite: its -exp name, the section title,
// whether it is opt-in (a costly extension "all" leaves out), and its run.
type experiment struct {
	name, title string
	optIn       bool
	run         func(experiments.Config) (result, error)
}

// result is what an experiment returns: its table and, when it is also
// charted, a figure.
type result interface{ Table() *stats.Table }

// charted is a result that also draws a figure.
type charted interface{ Chart() experiments.ChartSVG }

// staticTable is a result that needs no simulation (Tables 1 and 2).
type staticTable func() *stats.Table

func (t staticTable) Table() *stats.Table { return t() }

// entry adapts an experiment constructor to the suite's run signature.
func entry[R result](name, title string, optIn bool, run func(experiments.Config) (R, error)) experiment {
	return experiment{name, title, optIn, func(cfg experiments.Config) (result, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// static is the suite entry for a table that needs no simulation.
func static(name, title string, t staticTable) experiment {
	return experiment{name, title, false, func(experiments.Config) (result, error) { return t, nil }}
}

// suite lists every experiment in the order svfexp prints them: the
// paper's tables and figures, then the opt-in extensions.
var suite = []experiment{
	static("table1", "Table 1: SPEC CPU2000 integer benchmark inventory", experiments.Table1),
	static("table2", "Table 2: Processor models", experiments.Table2),
	entry("fig1", "Figure 1: Run-time memory access distribution", false, experiments.Fig1),
	entry("fig2", "Figure 2: Stack depth variation (summary; series in library API)", false, experiments.Fig2),
	entry("fig3", "Figure 3: Offset locality within a function", false, experiments.Fig3),
	entry("fig5", "Figure 5: Speedup of morphing all stack accesses (infinite SVF), %", false, experiments.Fig5),
	entry("fig6", "Figure 6: Progressive performance analysis (16-wide), %", false, experiments.Fig6),
	entry("fig7", "Figure 7: SVF vs stack cache vs baseline ports, % over (2+0)", false, experiments.Fig7),
	entry("fig8", "Figure 8: Breakdown of SVF reference types", false, experiments.Fig8),
	entry("fig9", "Figure 9: SVF speedups over baseline, %", false, experiments.Fig9),
	entry("table3", "Table 3: Memory traffic, stack cache vs SVF (quadwords)", false, experiments.Table3),
	entry("table4", "Table 4: Memory traffic on context switches (bytes/switch)", false, experiments.Table4),
	entry("x86", "x86 extension (§7): partial-word flavour vs Alpha flavour under the SVF", true, experiments.X86),
	entry("scorecard", "Reproduction scorecard: the paper's headline claims, graded", true, experiments.RunScorecard),
	entry("rse", "Structure comparison: SVF vs stack cache vs register stack engine (§6)", true, experiments.RSE),
	entry("sweep", "Design-space sweep: SVF capacity x ports (mean over benchmarks)", true, experiments.Sweep),
	entry("famperf", "Stack-stress families: speedup over (2+0) baseline, %", true, experiments.FamilyPerf),
	entry("famtraffic", "Stack-stress families: memory traffic (quadwords; bytes/ctx-switch)", true, experiments.FamilyTraffic),
}

// selectExperiments returns the suite entries a comma-separated -exp spec
// names, in suite order; "all" names every entry that is not opt-in.
func selectExperiments(spec string) []experiment {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	var out []experiment
	for _, e := range suite {
		if want[e.name] || (want["all"] && !e.optIn) {
			out = append(out, e)
		}
	}
	return out
}

// execute runs the entry and hands the figure it draws, if any, to draw. It
// returns the entry's table, or nil when the experiment itself failed; a
// draw error comes back with the table.
func (e experiment) execute(cfg experiments.Config, draw func(experiments.ChartSVG) error) (*stats.Table, error) {
	r, err := e.run(cfg)
	if err != nil {
		return nil, err
	}
	t := r.Table()
	if c, ok := r.(charted); ok {
		return t, draw(c.Chart())
	}
	return t, nil
}
