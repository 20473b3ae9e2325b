package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// smallCfg keeps experiment tests fast; the bench harness and CLI use
// bigger budgets.
func smallCfg() Config {
	return Config{
		MaxInsts:     60_000,
		TrafficInsts: 300_000,
		Benchmarks:   []*synth.Profile{synth.Bzip2(), synth.Crafty(), synth.Eon(), synth.Gzip()},
	}
}

func TestFig1(t *testing.T) {
	r, err := Fig1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		total := row.StackTotal() + row.Global + row.ROData + row.Heap + row.Other
		if total < 0.98 || total > 1.02 {
			t.Errorf("%s: fractions sum to %.3f", row.Bench, total)
		}
		if row.MemFrac < 0.15 || row.MemFrac > 0.7 {
			t.Errorf("%s: MemFrac %.3f out of range", row.Bench, row.MemFrac)
		}
		if row.StackSP <= row.StackGPR && row.Bench != "252.eon.cook" {
			t.Errorf("%s: $sp share should dominate", row.Bench)
		}
	}
	if !strings.Contains(r.Table().String(), "average") {
		t.Error("table should include the average row")
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		if len(s.X) == 0 {
			t.Errorf("%s: empty depth series", s.Bench)
		}
		if s.MaxDepthWords == 0 {
			t.Errorf("%s: depth never moved", s.Bench)
		}
	}
	// bzip2's graphic input mostly stays shallow; crafty reaches several
	// hundred words (paper Figure 2).
	byName := map[string]Fig2Series{}
	for _, s := range r.Series {
		byName[s.Bench] = s
	}
	if c := byName["186.crafty.ref"]; c.MaxDepthWords < 200 {
		t.Errorf("crafty max depth %d, want >= 200 words", c.MaxDepthWords)
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFig3(t *testing.T) {
	r, err := Fig3(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Within8KB < 0.9 {
			t.Errorf("%s: within-8KB %.3f", row.Bench, row.Within8KB)
		}
		// CDF must be monotone.
		for i := 1; i < len(row.CumAt); i++ {
			if row.CumAt[i] < row.CumAt[i-1] {
				t.Errorf("%s: CDF not monotone at %d", row.Bench, i)
			}
		}
	}
}

func TestFig5SmokeAndShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Parser()}
	r, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wider machines benefit more from morphing (the paper's headline
	// scaling: 11% → 19% → 31%).
	if r.Mean16 <= r.Mean4 {
		t.Errorf("16-wide mean %.3f should exceed 4-wide %.3f", r.Mean16, r.Mean4)
	}
	if r.Mean16 < 1.05 {
		t.Errorf("16-wide morphing speedup %.3f too small", r.Mean16)
	}
	for _, row := range r.Rows {
		for _, v := range []float64{row.Wide4, row.Wide8, row.Wide16, row.Gshare16} {
			if v < 0.8 || v > 3 {
				t.Errorf("%s: implausible speedup %.3f", row.Bench, v)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Vpr()}
	r, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the L1 is nearly free of benefit (paper: negligible).
	if r.MeanL1x2 > 1.05 {
		t.Errorf("L1 doubling gave %.3f, should be negligible", r.MeanL1x2)
	}
	// Most of the gain comes from the SVF; more ports never hurt.
	if r.Mean2 < r.MeanL1x2 {
		t.Errorf("SVF (%.3f) should beat L1 doubling (%.3f)", r.Mean2, r.MeanL1x2)
	}
	if r.Mean16P+0.02 < r.Mean2 {
		t.Errorf("16-port SVF (%.3f) should not lose to 2-port (%.3f)", r.Mean16P, r.Mean2)
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Eon()}
	r, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// no_squash only helps (paper §5.3.1).
	if r.MeanNoSquash+0.02 < r.MeanSVF22 {
		t.Errorf("no_squash (%.3f) should not lose to squashing SVF (%.3f)", r.MeanNoSquash, r.MeanSVF22)
	}
	// eon: the stack cache beats the squashing SVF, and no_squash
	// reverses that (the paper's eon narrative).
	var eon Fig7Row
	for _, row := range r.Rows {
		if strings.Contains(row.Bench, "eon") {
			eon = row
		}
	}
	if eon.SC22 <= eon.SVF22 {
		t.Errorf("eon: stack cache (%.3f) should beat squashing SVF (%.3f)", eon.SC22, eon.SVF22)
	}
	if eon.NoSquash22 <= eon.SC22 {
		t.Errorf("eon: no_squash SVF (%.3f) should beat the stack cache (%.3f)", eon.NoSquash22, eon.SC22)
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Eon()}
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanMorphed < 0.5 || r.MeanMorphed > 1 {
		t.Errorf("morphed fraction %.3f implausible (paper: ~0.86)", r.MeanMorphed)
	}
	for _, row := range r.Rows {
		sum := row.FastLoads + row.FastStores + row.ReroutedLoads + row.ReroutedStores
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: breakdown sums to %.3f", row.Bench, sum)
		}
	}
	// eon reroutes the most (its $gpr-heavy access mix).
	var eon, crafty Fig8Row
	for _, row := range r.Rows {
		if strings.Contains(row.Bench, "eon") {
			eon = row
		} else {
			crafty = row
		}
	}
	if eon.Morphed() >= crafty.Morphed() {
		t.Errorf("eon should morph less (%.3f) than crafty (%.3f)", eon.Morphed(), crafty.Morphed())
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Parser()}
	r, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Adding an SVF to a single-ported cache is the big win (paper: 50%+);
	// gains shrink with a dual-ported cache (paper: 24%).
	if r.Mean11 < 1.1 {
		t.Errorf("(1+1) speedup %.3f too small", r.Mean11)
	}
	if r.Mean12+0.02 < r.Mean11 {
		t.Errorf("(1+2) %.3f should not lose to (1+1) %.3f", r.Mean12, r.Mean11)
	}
	if r.Mean11 <= r.Mean22 {
		t.Errorf("single-ported baseline gain (%.3f) should exceed dual-ported (%.3f)", r.Mean11, r.Mean22)
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Gcc(), synth.Gzip()}
	r, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		for s := 1; s < 3; s++ {
			if row.SCIn[s] > row.SCIn[s-1]*2 {
				t.Errorf("%s: stack cache fill traffic grew with size (%v)", row.Bench, row.SCIn)
			}
		}
	}
	// gcc generates heavy stack-cache traffic even at 8KB (paper), and the
	// SVF stays far below it.
	gcc := r.Rows[0]
	if gcc.SCIn[2] < 1000 {
		t.Errorf("gcc 8KB stack cache fill traffic %d too low", gcc.SCIn[2])
	}
	if gcc.SVFIn[2]*2 > gcc.SCIn[2] {
		t.Errorf("gcc 8KB: SVF in (%d) should be far below stack cache (%d)", gcc.SVFIn[2], gcc.SCIn[2])
	}
}

func TestTable3UsesAllInputsForFullSet(t *testing.T) {
	cfg := Config{MaxInsts: 10_000, TrafficInsts: 50_000}
	r, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 17 {
		t.Errorf("full Table 3 should have 17 benchmark·input rows, got %d", len(r.Rows))
	}
}

// Table 3 substitutes its 17 bundled inputs only when Config.Benchmarks is
// unset: a caller's own twelve profiles get their own twelve rows.
func TestTable3KeepsCallerProfiles(t *testing.T) {
	var x86 []*synth.Profile
	for _, p := range synth.Benchmarks() {
		x86 = append(x86, synth.X86Variant(p))
	}
	cache := sim.NewRunCache()
	cache.SetExecutor(zeroTraffic{})
	r, err := Table3(Config{TrafficInsts: 50_000, Benchmarks: x86, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(x86) {
		t.Fatalf("rows = %d, want the %d profiles passed in", len(r.Rows), len(x86))
	}
	for i, row := range r.Rows {
		if row.Bench != x86[i].ID() {
			t.Errorf("row %d = %s, want %s", i, row.Bench, x86[i].ID())
		}
	}
}

func TestTable4Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.Benchmarks = []*synth.Profile{synth.Crafty(), synth.Eon()}
	cfg.TrafficInsts = 2_000_000 // needs several context-switch periods
	r, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.StackCacheBytes == 0 || row.SVFBytes == 0 {
			t.Errorf("%s: zero flush traffic (sc=%d svf=%d)", row.Bench, row.StackCacheBytes, row.SVFBytes)
		}
		// Paper: stack cache writes back 3-20x more.
		if r := row.Ratio(); r < 1.5 || r > 60 {
			t.Errorf("%s: ratio %.1f outside plausible band", row.Bench, r)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	cfg := Config{Parallel: 2}
	err := cfg.forEach(5, func(ctx context.Context, i int) error {
		if i == 3 {
			return errTest
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// With parallel=1, the first failure must stop the remaining tasks from
// ever starting: one failed simulation aborts the experiment instead of
// burning the rest of the budget.
func TestForEachFailsFast(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{Parallel: 1}
	err := cfg.forEach(100, func(ctx context.Context, i int) error {
		calls.Add(1)
		return errTest
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d tasks ran after the first failure, want fail-fast (1 total)", got)
	}
}

// A free slot prefers a warm row's next cell, then a new row's first cell,
// and only then a cell of a row whose first cell is still running.
func TestNextRowOrder(t *testing.T) {
	next, warm := make([]int, 2), make([]bool, 2)
	take := func(r, k int) {
		t.Helper()
		if got := nextRow(next, warm, 3); got != r || next[r] != k {
			t.Fatalf("next row = %d, want row %d at column %d (it is at %d)", got, r, k, next[r])
		}
		next[r]++
	}
	take(0, 0)
	take(1, 0) // row 0 is still on its first cell: begin row 1
	take(0, 1) // no row left to begin: join row 0 rather than idle
	warm[1] = true
	take(1, 1)
	take(1, 2)
	take(0, 2)
	if got := nextRow(next, warm, 3); got != -1 {
		t.Errorf("nextRow of a spent grid = %d, want -1", got)
	}
}

// A grid with fewer rows than slots still fills them: all four cells of a
// one-row grid must be in flight at once.
func TestRunGridFillsSlotsBeyondRows(t *testing.T) {
	const cols = 4
	var inFlight atomic.Int32
	all := make(chan struct{})
	cfg := Config{Parallel: cols}
	cells, err := runGrid(cfg, []*synth.Profile{synth.Gzip()}, make([]int, cols), func(context.Context, *synth.Profile, int) (*int, error) {
		if inFlight.Add(1) == cols {
			close(all)
		}
		select {
		case <-all:
			return new(int), nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("the row's cells never ran together")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete(cells[0]) {
		t.Errorf("cells = %v, want every cell", cells[0])
	}
}

// zeroTraffic answers every traffic cell with zeros without simulating.
type zeroTraffic struct{}

func (zeroTraffic) ExecRun(context.Context, *synth.Profile, sim.Options) (*sim.Result, error) {
	return nil, errTest
}

func (zeroTraffic) ExecTraffic(context.Context, *synth.Profile, pipeline.StackPolicy, int, int, uint64) (uint64, uint64, uint64, error) {
	return 0, 0, 0, nil
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
