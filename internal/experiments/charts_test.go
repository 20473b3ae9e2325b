package experiments

import (
	"strings"
	"testing"

	"svf/internal/synth"
)

func TestFig1Chart(t *testing.T) {
	r, err := Fig1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := r.Chart()
	if c.Name != "fig1.svg" {
		t.Errorf("name = %q", c.Name)
	}
	for _, want := range []string{"<svg", "</svg>", "stack ($sp)", "heap"} {
		if !strings.Contains(c.SVG, want) {
			t.Errorf("fig1 SVG missing %q", want)
		}
	}
}

func TestFig2ChartPicksRepresentatives(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = synth.Benchmarks()
	r, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Chart()
	// The paper's Figure 2 shows four example panels; the chart keeps at
	// most four series and prefers the paper's representative set.
	if n := strings.Count(c.SVG, "<polyline"); n > 4 {
		t.Errorf("fig2 chart has %d series, want <= 4", n)
	}
	if !strings.Contains(c.SVG, "186.crafty.ref") {
		t.Error("fig2 chart should include crafty (a paper panel)")
	}
}

func TestFig3ChartLogAxis(t *testing.T) {
	r, err := Fig3(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := r.Chart()
	if !strings.Contains(c.SVG, "offset from TOS") {
		t.Error("fig3 chart missing axis label")
	}
}

func TestPerfChartsRender(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Gzip()}
	r5, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []ChartSVG{r5.Chart(), r9.Chart()} {
		if !strings.Contains(c.SVG, "</svg>") {
			t.Errorf("%s did not render", c.Name)
		}
		if !strings.Contains(c.SVG, "186.crafty.ref") {
			t.Errorf("%s missing category labels", c.Name)
		}
	}
}

func TestRepresentativeSelection(t *testing.T) {
	all := []string{"164.gzip.graphic", "186.crafty.ref", "176.gcc.cp-decl", "175.vpr.ref"}
	idx := representative(all, 2)
	if len(idx) != 2 {
		t.Fatalf("got %d indices", len(idx))
	}
	// Preferred benchmarks (crafty, gcc) win the two slots.
	if all[idx[0]] != "186.crafty.ref" || all[idx[1]] != "176.gcc.cp-decl" {
		t.Errorf("representative picked %v", idx)
	}
	// Fills from the front when too few preferred are present.
	idx = representative([]string{"a", "b", "c"}, 2)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("fallback selection wrong: %v", idx)
	}
}

func TestSweep(t *testing.T) {
	cfg := Config{
		MaxInsts:   30_000,
		Benchmarks: []*synth.Profile{synth.Crafty(), synth.Gzip()},
	}
	r, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(SweepSizes)*len(SweepPorts) {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.MeanSpeedup < 0.7 || p.MeanSpeedup > 3 {
			t.Errorf("%dKB/%dp: implausible speedup %.3f", p.SizeBytes>>10, p.Ports, p.MeanSpeedup)
		}
	}
	// Larger SVFs cannot generate more traffic at fixed ports.
	small := r.Point(1<<10, 2)
	big := r.Point(16<<10, 2)
	if small == nil || big == nil {
		t.Fatal("missing sweep points")
	}
	if big.MeanTrafficQW > small.MeanTrafficQW {
		t.Errorf("16KB traffic (%.0f) exceeds 1KB traffic (%.0f)", big.MeanTrafficQW, small.MeanTrafficQW)
	}
	if r.Point(123, 456) != nil {
		t.Error("unknown point should be nil")
	}
	if !strings.Contains(r.Table().String(), "8KB") {
		t.Error("table missing size rows")
	}
}

func TestReportBuilder(t *testing.T) {
	var r ReportBuilder
	r.AddSection("Figure 9: SVF speedups over baseline, %", "bench a b\nrow 1 2\n")
	r.AddSection("Table 4: Memory traffic on context switches", "bench x\nrow 9\n")
	r.AddChart(ChartSVG{Name: "fig9.svg", SVG: "<svg>marker9</svg>"})
	r.AddChart(ChartSVG{Name: "fig5.svg", SVG: "<svg>marker5</svg>"})
	if len(r.sections) != 2 {
		t.Fatalf("%d sections, want 2", len(r.sections))
	}
	out := r.Render()
	for _, want := range []string{
		"<!DOCTYPE html", "Figure 9: SVF speedups", "marker9",
		"Table 4: Memory traffic", "<pre>bench a b",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// fig5's chart has no matching section and must not be inlined.
	if strings.Contains(out, "marker5") {
		t.Error("unmatched chart leaked into the report")
	}
	// Table content is escaped as text, not interpreted.
	r2 := ReportBuilder{}
	r2.AddSection("t", "<script>alert(1)</script>")
	if strings.Contains(r2.Render(), "<script>") {
		t.Error("table content not HTML-escaped")
	}
}

func TestX86Experiment(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Parser()}
	r, err := X86(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.RMWs == 0 {
			t.Errorf("%s: x86 flavour produced no read-modify-writes", row.Bench)
		}
		if row.X86FillQW <= row.AlphaFillQW {
			t.Errorf("%s: x86 fill traffic (%d) should exceed Alpha's (%d)", row.Bench, row.X86FillQW, row.AlphaFillQW)
		}
		if row.AlphaSpeedup < 0.9 || row.X86Speedup < 0.8 {
			t.Errorf("%s: implausible speedups %+v", row.Bench, row)
		}
	}
	if !strings.Contains(r.Table().String(), "x86 RMWs") {
		t.Error("table missing RMW column")
	}
}

func TestRSEExperiment(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Gcc(), synth.Gzip()}
	cfg.TrafficInsts = 900_000 // several 400k context-switch periods
	r, err := RSE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var gcc, gzip RSERow
	for _, row := range r.Rows {
		if strings.Contains(row.Bench, "gcc") {
			gcc = row
		} else {
			gzip = row
		}
	}
	// Deep recursion (gcc) drowns the RSE in whole-frame traffic; the
	// SVF's demand-driven per-word movement stays far below it.
	if gcc.RSEQW <= gcc.SVFQW {
		t.Errorf("gcc: RSE traffic (%d QW) should exceed SVF's (%d)", gcc.RSEQW, gcc.SVFQW)
	}
	if gcc.RSESpeedup >= gcc.SVFSpeedup {
		t.Errorf("gcc: RSE (%.2f) should lose to the SVF (%.2f)", gcc.RSESpeedup, gcc.SVFSpeedup)
	}
	// The stack cache's context-switch flush (whole dirty lines) is the
	// costliest on both benchmarks.
	for _, row := range []RSERow{gcc, gzip} {
		if row.SCCtxBytes <= row.SVFCtxBytes {
			t.Errorf("%s: stack cache flush (%d B) should exceed SVF's (%d)", row.Bench, row.SCCtxBytes, row.SVFCtxBytes)
		}
	}
	if !strings.Contains(r.Table().String(), "rse speedup") {
		t.Error("table missing columns")
	}
}

func TestScorecard(t *testing.T) {
	cfg := Config{
		MaxInsts:     50_000,
		TrafficInsts: 900_000,
		Benchmarks:   []*synth.Profile{synth.Crafty(), synth.Eon(), synth.Parser()},
	}
	sc, err := RunScorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Entries) != 11 {
		t.Fatalf("entries = %d, want 11", len(sc.Entries))
	}
	// At a tiny budget a couple of magnitude claims can wobble, but the
	// core orderings must hold.
	if sc.Passed() < 8 {
		t.Errorf("only %d/%d claims reproduced at test budget:\n%s", sc.Passed(), len(sc.Entries), sc.Table())
	}
	if !strings.Contains(sc.Table().String(), "claims reproduced") {
		t.Error("table missing summary row")
	}
}
