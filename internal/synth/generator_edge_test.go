package synth

import (
	"testing"

	"svf/internal/isa"
	"svf/internal/regions"
	"svf/internal/trace"
)

func TestTraceHelperLength(t *testing.T) {
	prog, err := BuildProgram(Vpr())
	if err != nil {
		t.Fatal(err)
	}
	if insts := TraceFor(prog, 777); len(insts) != 777 {
		t.Errorf("TraceFor returned %d, want 777", len(insts))
	}
}

func TestGeneratorEmittedCounter(t *testing.T) {
	g, err := NewGenerator(Gzip())
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	for i := 0; i < 500; i++ {
		g.Next(&in)
	}
	if g.emitted != 500 {
		t.Errorf("emitted = %d, want 500", g.emitted)
	}
	g.Reset()
	if g.emitted != 0 {
		t.Errorf("emitted after Reset = %d", g.emitted)
	}
}

func TestDepthNeverExceedsMaxFrames(t *testing.T) {
	// A pathologically recursive profile must be stopped by the frame
	// guard rather than growing without bound.
	p := *Parser()
	p.Name = "900.recursion"
	p.Seed = 31337
	p.RecurseFrac = 0.9
	p.CallFrac = 0.3
	p.DepthTypicalWords = 1 << 20 // effectively uncapped by depth
	p.DepthBurstWords = 1 << 20
	p.SubtreeLen = 1 << 30 // effectively uncapped by deadline
	p.InvocationLen = 1 << 20
	p.EpisodeLen = 1 << 30
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(&p)
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	var calls, rets int
	for i := 0; i < 500_000; i++ {
		if !g.Next(&in) {
			t.Fatal("generator stalled")
		}
		switch in.Kind {
		case isa.KindCall:
			calls++
		case isa.KindReturn:
			rets++
		}
		if d := calls - rets; d > maxFrames {
			t.Fatalf("live call depth %d exceeded maxFrames %d", d, maxFrames)
		}
	}
}

func TestDepthTracksSPExactly(t *testing.T) {
	// The generator's DepthWords and the trace's $sp arithmetic must
	// agree instruction by instruction.
	g, err := NewGenerator(Twolf())
	if err != nil {
		t.Fatal(err)
	}
	layout := regions.DefaultLayout()
	sp := layout.StackBase - 4096
	var in isa.Inst
	for i := 0; i < 100_000; i++ {
		g.Next(&in)
		if in.Kind == isa.KindSPAdjust {
			sp = uint64(int64(sp) + int64(in.Imm))
		}
		want := (layout.StackBase - 4096 - sp) / isa.WordSize
		if g.DepthWords() != want {
			t.Fatalf("inst %d: DepthWords %d, trace-derived %d", i, g.DepthWords(), want)
		}
	}
	if g.sp != sp {
		t.Errorf("sp %#x, trace-derived %#x", g.sp, sp)
	}
}

func TestSubtreeDeadlineBoundsDwellTime(t *testing.T) {
	// Function-visit diversity: within a few SubtreeLen windows the trace
	// must touch a healthy share of the program's functions, not camp in
	// one call subtree.
	prof := Gcc()
	g, err := NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[uint64]bool{}
	var in isa.Inst
	for i := 0; i < 8*prof.SubtreeLen; i++ {
		g.Next(&in)
		if in.Kind == isa.KindCall {
			funcs[in.Addr] = true
		}
	}
	if len(funcs) < prof.NumFuncs/3 {
		t.Errorf("only %d of %d functions called; subtree deadlines not cycling the call graph", len(funcs), prof.NumFuncs)
	}
}

func TestGeneratorAsTraceStream(t *testing.T) {
	// The generator satisfies trace.Stream.
	var _ trace.Stream = (*Generator)(nil)
}

func TestCharacterizeRespectsBudget(t *testing.T) {
	g, err := NewGenerator(Gap())
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(g, regions.DefaultLayout(), 12345)
	if c.TotalInsts != 12345 {
		t.Errorf("TotalInsts = %d, want 12345", c.TotalInsts)
	}
}

func TestCharacterizeNonImmCounting(t *testing.T) {
	p := *Crafty()
	p.Name = "901.nonimm"
	p.NonImmSPFrac = 0.5 // half of frame allocations computed
	g, err := NewGenerator(&p)
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(g, regions.DefaultLayout(), 200_000)
	if c.NonImmSPUpdates == 0 {
		t.Error("no non-immediate $sp updates observed")
	}
	if c.SPUpdates <= c.NonImmSPUpdates {
		t.Error("non-immediate updates should be a subset of all updates")
	}
}
