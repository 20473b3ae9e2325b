package pipeline

import (
	"context"
	"testing"

	"svf/internal/bpred"
	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/isa"
	"svf/internal/regions"
	"svf/internal/trace"
)

func TestShortStreamTerminates(t *testing.T) {
	// Run with maxInsts far beyond the stream: the pipeline must drain
	// and stop rather than spin.
	insts := []isa.Inst{mkALU(0x1000, 1, isa.RegZero), mkALU(0x1004, 2, 1)}
	env := testEnv(t, tinyMachine(), PolicyNone, 0)
	p, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(context.Background(), trace.NewSliceStream(insts), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 2 {
		t.Errorf("committed %d, want 2", st.Committed)
	}
}

// countingStream is an endless stream of independent ALU operations that
// counts the instructions it hands out.
type countingStream struct{ n uint64 }

func (s *countingStream) Next(in *isa.Inst) bool {
	*in = mkALU(0x1000+4*(s.n%64), uint8(1+s.n%10), isa.RegZero)
	s.n++
	return true
}

// TestRunReadsOnlyItsBudget hands Run an endless stream: the pipeline must
// ask it for exactly maxInsts instructions, fetch no more and commit them
// all, so a caller need not bound the stream itself.
func TestRunReadsOnlyItsBudget(t *testing.T) {
	for _, mc := range []MachineConfig{tinyMachine(), SixteenWide()} {
		for _, max := range []uint64{1, 7, 1000} {
			p, err := New(testEnv(t, mc, PolicyNone, 0))
			if err != nil {
				t.Fatal(err)
			}
			s := &countingStream{}
			st, err := p.Run(context.Background(), s, max)
			if err != nil {
				t.Fatal(err)
			}
			if s.n != max || st.Fetched != max || st.Committed != max {
				t.Errorf("%s, budget %d: read %d, fetched %d, committed %d", mc.Name, max, s.n, st.Fetched, st.Committed)
			}
		}
	}
}

func TestEmptyStream(t *testing.T) {
	env := testEnv(t, tinyMachine(), PolicyNone, 0)
	p, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(context.Background(), trace.NewSliceStream(nil), 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 {
		t.Errorf("committed %d from an empty stream", st.Committed)
	}
}

func TestAGENConsumesALUAndIssueSlot(t *testing.T) {
	// Loads requiring address generation consume 2 issue slots; at
	// width 2 that caps memory throughput at 1/cycle even with many
	// ports, while morphing restores 2/cycle.
	sp := stackTop - 256
	var insts []isa.Inst
	insts = append(insts, isa.Inst{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -256, Dst: isa.RegSP, Src1: isa.RegSP, Flags: isa.FlagSPImmediate})
	for i := 0; i < 16; i++ {
		off := int32(8 * (i % 32))
		insts = append(insts, isa.Inst{PC: 0x1004 + uint64(i*4), Kind: isa.KindStore, Src1: 1, Base: isa.RegSP, Imm: off, Addr: sp + uint64(off), Size: 8, Dst: isa.RegZero})
	}
	for i := 0; i < 200; i++ {
		off := int32(8 * (i % 32))
		insts = append(insts, isa.Inst{PC: 0x2000 + uint64(i*4), Kind: isa.KindLoad, Dst: uint8(1 + i%8), Base: isa.RegSP, Imm: off, Addr: sp + uint64(off), Size: 8})
	}
	mc := tinyMachine()
	mc.DL1Ports = 4 // ports generous; issue slots are the cap
	base := run(t, testEnv(t, mc, PolicyNone, 0), insts)
	svf := run(t, testEnv(t, mc, PolicySVF, 4), insts)
	if base.Cycles < 200 {
		t.Errorf("baseline %d cycles; AGEN slots should cap loads at ~1/cycle", base.Cycles)
	}
	if svf.Cycles >= base.Cycles {
		t.Errorf("morphing (%d cycles) should beat AGEN-bound baseline (%d)", svf.Cycles, base.Cycles)
	}
}

func TestNoMorphTreatsEverythingRerouted(t *testing.T) {
	insts := svfTestTrace(50)
	mc := tinyMachine()
	mc.NoMorph = true
	env := testEnv(t, mc, PolicySVF, 2)
	run(t, env, insts)
	st := env.Stack.SVF.Stats()
	if st.MorphedRefs() != 0 {
		t.Errorf("NoMorph still morphed %d refs", st.MorphedRefs())
	}
	if st.ReroutedRefs() == 0 {
		t.Error("NoMorph should reroute everything")
	}
}

func TestMorphedStoresDontStallOnPorts(t *testing.T) {
	// A store-only stack burst through a 1-port SVF: morphed stores use
	// the banked write path at half-port cost, so throughput stays close
	// to the width bound rather than 1 store/cycle.
	sp := stackTop - 256
	var insts []isa.Inst
	insts = append(insts, isa.Inst{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -256, Dst: isa.RegSP, Src1: isa.RegSP, Flags: isa.FlagSPImmediate})
	for i := 0; i < 100; i++ {
		off := int32(8 * (i % 32))
		insts = append(insts, isa.Inst{PC: 0x1004 + uint64(i*4), Kind: isa.KindStore, Src1: uint8(1 + i%4), Base: isa.RegSP, Imm: off, Addr: sp + uint64(off), Size: 8, Dst: isa.RegZero})
	}
	one := run(t, testEnv(t, tinyMachine(), PolicySVF, 1), insts)
	if one.Cycles > 90 {
		t.Errorf("store burst took %d cycles through 1 SVF port; banked stores should not serialise", one.Cycles)
	}
}

func TestSPRelativeOutsideWindowGoesToDL1(t *testing.T) {
	// An $sp+imm reference beyond the SVF window is an ordinary cache
	// reference (bounds check fails).
	sp := stackTop - 64
	farOff := int32(16 << 10) // 16KB beyond an 8KB window
	insts := []isa.Inst{
		{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -64, Dst: isa.RegSP, Src1: isa.RegSP, Flags: isa.FlagSPImmediate},
		{PC: 0x1004, Kind: isa.KindLoad, Dst: 1, Base: isa.RegSP, Imm: farOff, Addr: sp + uint64(farOff), Size: 8},
	}
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.DL1Refs != 1 {
		t.Errorf("DL1Refs = %d, want 1 (out-of-window stack ref)", st.DL1Refs)
	}
	if st.SVFRefs != 0 {
		t.Errorf("SVFRefs = %d, want 0", st.SVFRefs)
	}
}

func TestStackCacheContextSwitchFlushes(t *testing.T) {
	insts := svfTestTrace(200)
	env := testEnv(t, tinyMachine(), PolicyStackCache, 2)
	env.CtxSwitchPeriod = 100
	st := run(t, env, insts)
	if st.CtxSwitches == 0 {
		t.Fatal("no context switches")
	}
	// The stack cache averages its flush bytes over the switches it saw;
	// that average must be its total flush traffic over the pipeline's
	// switch count.
	sc := env.Stack.SC
	flushed := sc.Stats().BytesOut - sc.QuadWordsOut()*isa.WordSize
	if got, want := sc.CtxSwitchBytes(), flushed/st.CtxSwitches; got != want {
		t.Errorf("stack cache averaged %d bytes/switch, want %d over the pipeline's %d switches", got, want, st.CtxSwitches)
	}
	if env.Stack.SC.CtxSwitchBytes() == 0 {
		t.Error("dirty stack lines should flush on context switches")
	}
}

func TestIFQBacklogBound(t *testing.T) {
	// Fetch cannot run ahead of dispatch by more than the IFQ size:
	// a serial mult chain throttles dispatch; fetched-but-not-committed
	// can never exceed IFQ+RUU.
	var insts []isa.Inst
	for i := 0; i < 60; i++ {
		insts = append(insts, isa.Inst{PC: 0x1000 + uint64(i*4), Kind: isa.KindMult, Dst: 1, Src1: 1})
	}
	env := testEnv(t, tinyMachine(), PolicyNone, 0)
	p, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.NewSliceStream(insts)
	if _, err := p.Run(context.Background(), stream, uint64(len(insts))); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Fetched != uint64(len(insts)) {
		t.Errorf("fetched %d, want %d", st.Fetched, len(insts))
	}
}

func TestSquashOnlyForGprStores(t *testing.T) {
	// An $sp store followed by an $sp load of the same address is the
	// normal renamed path — never a squash.
	insts := svfTestTrace(100)
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.Squashes != 0 {
		t.Errorf("sp-store/sp-load pattern squashed %d times", st.Squashes)
	}
}

func TestMispredictedBranchRedirectsAfterIssue(t *testing.T) {
	// The fetch stall ends only when the mispredicted branch resolves:
	// putting it behind a long dependence chain must lengthen the stall.
	mkChain := func(depth int) []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < depth; i++ {
			insts = append(insts, isa.Inst{PC: 0x1000 + uint64(i*4), Kind: isa.KindMult, Dst: 1, Src1: 1})
		}
		insts = append(insts, isa.Inst{PC: 0x5000, Kind: isa.KindBranch, Src1: 1, Dst: isa.RegZero, Addr: 0x5004})
		for i := 0; i < 40; i++ {
			insts = append(insts, mkALU(0x6000+uint64(i*4), uint8(2+i%8), isa.RegZero))
		}
		return insts
	}
	envShort := testEnv(t, tinyMachine(), PolicyNone, 0)
	envShort.Pred = wrongPredictor{}
	short := run(t, envShort, mkChain(2))
	envLong := testEnv(t, tinyMachine(), PolicyNone, 0)
	envLong.Pred = wrongPredictor{}
	long := run(t, envLong, mkChain(12))
	// The long chain delays branch resolution by ~30 mult cycles; the
	// post-branch block must finish correspondingly later.
	if long.Cycles < short.Cycles+20 {
		t.Errorf("late-resolving branch: %d vs %d cycles; resolution timing not modelled", long.Cycles, short.Cycles)
	}
}

func TestStatsRouting(t *testing.T) {
	// Mixed trace: counts must partition MemRefs exactly.
	insts := svfTestTrace(30)
	heap := uint64(0x1_8000_0000)
	for i := 0; i < 10; i++ {
		insts = append(insts, isa.Inst{PC: 0x9000 + uint64(i*4), Kind: isa.KindLoad, Dst: 1, Base: 27, Src1: 27, Addr: heap + uint64(i*64), Size: 8})
	}
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.MemRefs != st.DL1Refs+st.StackRefs+st.SVFRefs {
		t.Errorf("mem refs %d != dl1 %d + stack %d + svf %d", st.MemRefs, st.DL1Refs, st.StackRefs, st.SVFRefs)
	}
	if st.DL1Refs != 10 {
		t.Errorf("DL1Refs = %d, want 10 heap loads", st.DL1Refs)
	}
}

func cacheHier(t *testing.T) *cache.Hierarchy {
	t.Helper()
	return must(cache.NewHierarchy(cache.DefaultHierarchyConfig()))
}

func coreMustNew(t *testing.T, size, banks int, h *cache.Hierarchy) *core.SVF {
	t.Helper()
	return must(core.New(core.Config{SizeBytes: size, Banks: banks}, h.DL1))
}

func perfectPred() bpred.Predictor { return bpred.NewPerfect() }

// must unwraps a constructor's result for the tests' valid static
// configurations.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func defaultLayout() regions.Layout { return regions.DefaultLayout() }

func TestBankedSVF(t *testing.T) {
	// Accesses to distinct words spread across banks issue in parallel;
	// same-bank accesses conflict.
	hier := cacheHier(t)
	svf4 := coreMustNew(t, 8<<10, 4, hier)
	env := Env{Machine: tinyMachine(), Hier: hier, Pred: perfectPred(), Layout: defaultLayout(),
		Stack: StackStructs{Policy: PolicySVF, SVF: svf4, Ports: 1}}
	insts := svfTestTrace(100)
	st := run(t, env, insts)
	if st.SVFRefs == 0 {
		t.Fatal("no SVF refs")
	}

	// One bank = strictly serialised SVF accesses: must be slower.
	hier1 := cacheHier(t)
	svf1 := coreMustNew(t, 8<<10, 1, hier1)
	env1 := Env{Machine: tinyMachine(), Hier: hier1, Pred: perfectPred(), Layout: defaultLayout(),
		Stack: StackStructs{Policy: PolicySVF, SVF: svf1, Ports: 1}}
	st1 := run(t, env1, insts)
	if st1.Cycles < st.Cycles {
		t.Errorf("1-bank SVF (%d cycles) beat 4-bank (%d)", st1.Cycles, st.Cycles)
	}
	if st1.StackPortConflicts == 0 {
		t.Error("single bank should conflict")
	}
}
