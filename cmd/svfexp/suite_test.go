package main

import (
	"reflect"
	"strings"
	"testing"

	"svf/internal/experiments"
	"svf/internal/sim"
	"svf/internal/synth"
)

// TestSuiteTable runs every suite entry at a toy budget over two profiles:
// each renders a non-empty table, the figures hand their SVG to the
// writer, names are unique, and -exp all selects exactly the paper's own
// tables and figures while the extensions stay opt-in.
func TestSuiteTable(t *testing.T) {
	cfg := experiments.Config{
		MaxInsts:     5_000,
		TrafficInsts: 20_000,
		Benchmarks:   []*synth.Profile{synth.Gzip(), synth.Crafty()},
		Cache:        sim.NewRunCache(),
	}
	seen := map[string]bool{}
	var drew []string
	for _, e := range suite {
		if seen[e.name] {
			t.Errorf("duplicate suite name %q", e.name)
		}
		seen[e.name] = true
		var charts []experiments.ChartSVG
		out, err := e.execute(cfg, func(c experiments.ChartSVG) error {
			charts = append(charts, c)
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", e.name, err)
			continue
		}
		if out == nil || strings.TrimSpace(out.String()) == "" {
			t.Errorf("%s: empty table", e.name)
		}
		if e.title == "" {
			t.Errorf("%s: no title", e.name)
		}
		for _, c := range charts {
			if !strings.HasSuffix(c.Name, ".svg") || !strings.HasPrefix(c.SVG, "<svg") {
				t.Errorf("%s: chart %q is not an SVG document", e.name, c.Name)
			}
		}
		if len(charts) > 0 {
			drew = append(drew, e.name)
		}
	}
	wantDrew := []string{"fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "famperf", "famtraffic"}
	if !reflect.DeepEqual(drew, wantDrew) {
		t.Errorf("entries that drew a figure = %v, want %v", drew, wantDrew)
	}

	names := func(es []experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.name)
		}
		return out
	}
	paper := []string{"table1", "table2", "fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "table3", "table4"}
	if got := names(selectExperiments("all")); !reflect.DeepEqual(got, paper) {
		t.Errorf("-exp all selects %v, want the paper's %v", got, paper)
	}
	var optIn []string
	for _, e := range suite {
		if e.optIn {
			optIn = append(optIn, e.name)
		}
	}
	if want := []string{"x86", "scorecard", "rse", "sweep", "famperf", "famtraffic"}; !reflect.DeepEqual(optIn, want) {
		t.Errorf("opt-in entries = %v, want %v", optIn, want)
	}
	for _, name := range optIn {
		if got := names(selectExperiments(" " + strings.ToUpper(name) + " ")); !reflect.DeepEqual(got, []string{name}) {
			t.Errorf("-exp %s selects %v", name, got)
		}
	}
	if got := names(selectExperiments("fig9,all,scorecard")); !reflect.DeepEqual(got, append(append([]string{}, paper...), "scorecard")) {
		t.Errorf("-exp fig9,all,scorecard selects %v", got)
	}
	if got := selectExperiments("fig4"); len(got) != 0 {
		t.Errorf("-exp fig4 selects %v, want nothing", names(got))
	}
}
