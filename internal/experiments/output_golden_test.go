package experiments

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
	"svf/internal/synth"
)

// updateGolden rewrites the rendered-output fixtures from the current
// experiments. Run `go test ./internal/experiments -run TestOutputGolden
// -update-golden` only when an output change is intended, and say why in
// the commit.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/output_*.txt from the current experiments")

// goldenExperiment is one simulating experiment the output fixture pins.
type goldenExperiment struct {
	name string
	run  func(Config) (interface{ Table() *stats.Table }, error)
}

// pin adapts an experiment constructor to goldenExperiment.
func pin[R interface{ Table() *stats.Table }](name string, run func(Config) (R, error)) goldenExperiment {
	return goldenExperiment{name, func(cfg Config) (interface{ Table() *stats.Table }, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// goldenExperiments lists every experiment that simulates, in svfexp's
// order.
var goldenExperiments = []goldenExperiment{
	pin("fig1", Fig1),
	pin("fig2", Fig2),
	pin("fig3", Fig3),
	pin("fig5", Fig5),
	pin("fig6", Fig6),
	pin("fig7", Fig7),
	pin("fig8", Fig8),
	pin("fig9", Fig9),
	pin("table3", Table3),
	pin("table4", Table4),
	pin("x86", X86),
	pin("scorecard", RunScorecard),
	pin("rse", RSE),
	pin("sweep", Sweep),
	pin("famperf", FamilyPerf),
	pin("famtraffic", FamilyTraffic),
}

// goldenCfg is the toy-budget suite the fixture pins. The traffic budget
// covers three context-switch periods, so Table 4 and the scorecard share
// their traffic cells.
func goldenCfg() Config {
	return Config{
		MaxInsts:     20_000,
		TrafficInsts: 3 * CtxSwitchPeriod,
		Benchmarks:   []*synth.Profile{synth.Crafty(), synth.Eon(), synth.Gcc(), synth.Gzip()},
		Parallel:     2,
		Cache:        sim.NewRunCache(),
	}
}

// failingExec fails the timing and traffic cells fails selects and runs
// every other cell in process. policy and sizeBytes are zero for a timing
// cell, opt is zero for a traffic cell.
type failingExec func(prof string, opt sim.Options, policy pipeline.StackPolicy, sizeBytes int) bool

func (fails failingExec) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	if fails(prof.ID(), opt, 0, 0) {
		return nil, fmt.Errorf("stub executor: %s fails", prof.ID())
	}
	return sim.RunContext(ctx, prof, opt)
}

func (fails failingExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	if fails(prof.ID(), sim.Options{}, policy, sizeBytes) {
		return 0, 0, 0, fmt.Errorf("stub executor: %s fails", prof.ID())
	}
	return sim.TrafficOnly(ctx, prof, policy, sizeBytes, maxInsts, ctxPeriod)
}

// degradedCells fails every cell of crafty, its x86 variant and the
// coroutine family, and a few cells of eon, its x86 variant and the
// recursion family, so each experiment shows how wide a gap one failed
// cell leaves.
func degradedCells(prof string, opt sim.Options, policy pipeline.StackPolicy, sizeBytes int) bool {
	crafty, eon, recursion := synth.Crafty(), synth.Eon(), synth.DeepRecursion()
	switch prof {
	case crafty.ID(), synth.X86Variant(crafty).ID(), synth.Coroutines().ID():
		return true
	case eon.ID():
		// One speedup pair of Fig 5, the 1-port cells of Figs 6, 7 and
		// 9, one RSE column and Table 3's 2KB size.
		return opt.Predictor == sim.PredGshare || opt.StackPorts == 1 ||
			opt.Policy == pipeline.PolicyRSE || sizeBytes == 2<<10
	case synth.X86Variant(eon).ID():
		return opt.Policy == pipeline.PolicySVF
	case recursion.ID():
		return opt.Policy == pipeline.PolicyRSE || sizeBytes == 4<<10
	}
	return false
}

// renderSuite runs every simulating experiment under cfg and renders each
// one's table and the sha256 of its chart, if it draws one.
func renderSuite(t *testing.T, cfg Config) string {
	t.Helper()
	var b strings.Builder
	for _, e := range goldenExperiments {
		r, err := e.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", e.name, r.Table().String())
		if c, ok := r.(interface{ Chart() ChartSVG }); ok {
			chart := c.Chart()
			fmt.Fprintf(&b, "chart %s sha256 %x\n", chart.Name, sha256.Sum256([]byte(chart.SVG)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestOutputGolden pins every simulating experiment's rendered table and
// chart at toy budgets, twice: on a clean suite, and on a degraded one
// where degradedCells fail under FaultContinue. The degraded pass pins
// each experiment's gap granularity: Fig 5 gaps per speedup pair, Figs 6,
// 7 and 9 per cell, Table 3 per size, Table 4, X86, RSE and the families
// per row, and the scorecard per claim.
func TestOutputGolden(t *testing.T) {
	degraded := goldenCfg()
	degraded.OnFault = FaultContinue
	degraded.Faults = NewFaultLog()
	degraded.Cache.SetExecutor(failingExec(degradedCells))
	for _, pass := range []struct {
		name string
		cfg  Config
	}{
		{"clean", goldenCfg()},
		{"degraded", degraded},
	} {
		t.Run(pass.name, func(t *testing.T) {
			got := renderSuite(t, pass.cfg)
			path := filepath.Join("testdata", "output_"+pass.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read output fixture (use -update-golden to record): %v", err)
			}
			if got != string(want) {
				t.Errorf("rendered output drifted from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
	if degraded.Faults.Summary() == "" {
		t.Error("the degraded pass recorded no fault")
	}
}

// firstDiff shows the first line where two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(identical lines, different length)"
}
