package pipeline

import (
	"context"
	"testing"

	"svf/internal/bpred"
	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/isa"
	"svf/internal/regions"
	"svf/internal/stackcache"
	"svf/internal/trace"
)

// tinyMachine is a 2-wide machine that makes resource effects visible.
func tinyMachine() MachineConfig {
	return MachineConfig{
		Name: "tiny", Width: 2, IFQSize: 8, RUUSize: 16, LSQSize: 8,
		IntALU: 4, IntMult: 1, ALULat: 1, MultLat: 3,
		DL1Ports: 1, StoreForwardLat: 3, MispredictPenalty: 3, SquashPenalty: 4,
	}
}

func testEnv(t *testing.T, mc MachineConfig, policy StackPolicy, stackPorts int) Env {
	t.Helper()
	hier := must(cache.NewHierarchy(cache.DefaultHierarchyConfig()))
	env := Env{Machine: mc, Hier: hier, Pred: bpred.NewPerfect(), Layout: regions.DefaultLayout()}
	switch policy {
	case PolicySVF:
		env.Stack = StackStructs{Policy: policy, SVF: must(core.New(core.Config{SizeBytes: 8 << 10}, hier.DL1)), Ports: stackPorts}
	case PolicyStackCache:
		env.Stack = StackStructs{Policy: policy, SC: must(stackcache.New(stackcache.Config{SizeBytes: 8 << 10}, hier.UL2)), Ports: stackPorts}
	}
	return env
}

func run(t *testing.T, env Env, insts []isa.Inst) Stats {
	t.Helper()
	// Micro-traces use fresh PCs; warm the IL1 so compulsory
	// instruction misses do not swamp the effects under test.
	for i := range insts {
		env.Hier.IL1.Access(insts[i].PC, false)
	}
	p, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(context.Background(), trace.NewSliceStream(insts), uint64(len(insts)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != uint64(len(insts)) {
		t.Fatalf("committed %d of %d instructions", st.Committed, len(insts))
	}
	return st
}

// mkALU builds a chain-free ALU op.
func mkALU(pc uint64, dst, src uint8) isa.Inst {
	return isa.Inst{PC: pc, Kind: isa.KindALU, Dst: dst, Src1: src, Src2: isa.RegZero}
}

const stackTop = uint64(0x11_fe00_0000)

func TestIndependentALUThroughput(t *testing.T) {
	// 100 independent ALU ops on a 2-wide machine: ~50 cycles + pipe fill.
	var insts []isa.Inst
	for i := 0; i < 100; i++ {
		insts = append(insts, mkALU(0x1000+uint64(i*4), uint8(1+i%10), isa.RegZero))
	}
	st := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	if st.Cycles < 50 || st.Cycles > 70 {
		t.Errorf("cycles = %d, want ~50-70 for width-2", st.Cycles)
	}
}

func TestSerialChainLatencyBound(t *testing.T) {
	// A fully serial chain cannot beat 1 IPC regardless of width.
	var insts []isa.Inst
	for i := 0; i < 100; i++ {
		insts = append(insts, mkALU(0x1000+uint64(i*4), 1, 1))
	}
	st := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	if st.Cycles < 100 {
		t.Errorf("serial chain finished in %d cycles; dependencies not honoured", st.Cycles)
	}
}

func TestMultLatency(t *testing.T) {
	// Serial multiplies: ~MultLat cycles each.
	var insts []isa.Inst
	for i := 0; i < 20; i++ {
		insts = append(insts, isa.Inst{PC: 0x1000 + uint64(i*4), Kind: isa.KindMult, Dst: 1, Src1: 1, Src2: isa.RegZero})
	}
	st := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	if st.Cycles < 60 {
		t.Errorf("20 serial multiplies in %d cycles, want >= 60 (3 each)", st.Cycles)
	}
}

func TestDL1PortThrottling(t *testing.T) {
	// Independent loads to distinct hot lines: throughput bounded by the
	// single DL1 port, so >= 1 cycle per load.
	warm := []isa.Inst{}
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		addr := uint64(0x1_4000_0000 + (i%4)*8) // few hot lines
		in := isa.Inst{PC: 0x1000 + uint64(i*4), Kind: isa.KindLoad, Dst: uint8(1 + i%8), Src1: 27, Base: 27, Addr: addr, Size: 8}
		insts = append(insts, in)
	}
	_ = warm
	// Width 6 so issue bandwidth (AGEN costs a second slot) is not the
	// binding resource; the single DL1 port must be.
	wide := tinyMachine()
	wide.Width = 6
	wide.IFQSize = 24
	wide.RUUSize = 48
	one := run(t, testEnv(t, wide, PolicyNone, 0), insts)
	wide2 := wide
	wide2.DL1Ports = 2
	two := run(t, testEnv(t, wide2, PolicyNone, 0), insts)
	if one.Cycles <= two.Cycles {
		t.Errorf("doubling DL1 ports did not help: %d vs %d cycles", one.Cycles, two.Cycles)
	}
	if one.DL1PortConflicts == 0 {
		t.Error("expected port conflicts with 1 port")
	}
}

func TestStoreForwarding(t *testing.T) {
	// A load reading an in-flight store's address forwards from the LSQ.
	addr := uint64(0x1_4000_0100)
	insts := []isa.Inst{
		{PC: 0x1000, Kind: isa.KindStore, Src1: 1, Src2: 27, Base: 27, Addr: addr, Size: 8, Dst: isa.RegZero},
		{PC: 0x1004, Kind: isa.KindLoad, Dst: 2, Src1: 27, Base: 27, Addr: addr, Size: 8},
	}
	st := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	if st.Forwards != 1 {
		t.Errorf("Forwards = %d, want 1", st.Forwards)
	}
}

// wrongPredictor always predicts the opposite of the actual outcome.
type wrongPredictor struct{}

func (wrongPredictor) Predict(pc uint64, actual bool) bool { return !actual }
func (wrongPredictor) Update(pc uint64, actual bool)       {}

func TestBranchMispredictBubbles(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 40; i++ {
		if i%4 == 3 {
			insts = append(insts, isa.Inst{PC: 0x1000 + uint64(i*4), Kind: isa.KindBranch, Src1: 1, Dst: isa.RegZero, Addr: 0x1000 + uint64(i*4) + 4})
		} else {
			insts = append(insts, mkALU(0x1000+uint64(i*4), uint8(1+i%8), isa.RegZero))
		}
	}
	env := testEnv(t, tinyMachine(), PolicyNone, 0)
	perfect := run(t, env, insts)

	env2 := testEnv(t, tinyMachine(), PolicyNone, 0)
	env2.Pred = wrongPredictor{}
	wrong := run(t, env2, insts)
	if wrong.Mispredicts != 10 {
		t.Errorf("mispredicts = %d, want 10", wrong.Mispredicts)
	}
	if wrong.Cycles <= perfect.Cycles {
		t.Errorf("mispredictions should cost cycles: %d vs %d", wrong.Cycles, perfect.Cycles)
	}
	if perfect.Mispredicts != 0 {
		t.Error("perfect predictor mispredicted")
	}
}

// svfTestTrace builds: sp -= 64; store 8($sp); load 8($sp); … repeated.
func svfTestTrace(n int) []isa.Inst {
	insts := []isa.Inst{
		{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -64, Dst: isa.RegSP, Src1: isa.RegSP, Flags: isa.FlagSPImmediate},
	}
	sp := stackTop - 64
	for i := 0; i < n; i++ {
		off := int32(8 * (i % 8))
		pc := 0x1004 + uint64(i*8)
		insts = append(insts,
			isa.Inst{PC: pc, Kind: isa.KindStore, Src1: uint8(1 + i%4), Base: isa.RegSP, Imm: off, Addr: sp + uint64(off), Size: 8, Dst: isa.RegZero},
			isa.Inst{PC: pc + 4, Kind: isa.KindLoad, Dst: uint8(5 + i%4), Base: isa.RegSP, Imm: off, Addr: sp + uint64(off), Size: 8},
		)
	}
	return insts
}

func TestSVFMorphingBypassesDL1(t *testing.T) {
	insts := svfTestTrace(50)
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.SVFRefs != 100 {
		t.Errorf("SVFRefs = %d, want 100 (all stack refs morph)", st.SVFRefs)
	}
	if st.DL1Refs != 0 {
		t.Errorf("DL1Refs = %d, want 0", st.DL1Refs)
	}
	svf := env.Stack.SVF.Stats()
	if svf.MorphedRefs() != 100 || svf.ReroutedRefs() != 0 {
		t.Errorf("SVF counters: %+v", svf)
	}
	// No demand fills: every location is stored before loaded.
	if svf.Fills != 0 {
		t.Errorf("fills = %d, want 0", svf.Fills)
	}
}

func TestSVFFasterThanBaselineOnStackChains(t *testing.T) {
	insts := svfTestTrace(200)
	base := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	svf := run(t, testEnv(t, tinyMachine(), PolicySVF, 2), insts)
	if svf.Cycles >= base.Cycles {
		t.Errorf("SVF (%d cycles) should beat baseline (%d) on stack-heavy code", svf.Cycles, base.Cycles)
	}
}

func TestRerouting(t *testing.T) {
	// A $gpr-addressed load to an in-window stack address reroutes into
	// the SVF.
	sp := stackTop - 64
	insts := []isa.Inst{
		{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -64, Dst: isa.RegSP, Src1: isa.RegSP, Flags: isa.FlagSPImmediate},
		{PC: 0x1004, Kind: isa.KindStore, Src1: 1, Base: isa.RegSP, Imm: 16, Addr: sp + 16, Size: 8, Dst: isa.RegZero},
		{PC: 0x1008, Kind: isa.KindLoad, Dst: 2, Base: 27, Src1: 27, Addr: sp + 16, Size: 8},
	}
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.SVFRefs != 3-1 {
		t.Errorf("SVFRefs = %d, want 2", st.SVFRefs)
	}
	svf := env.Stack.SVF.Stats()
	if svf.ReroutedRefs() == 0 && st.Forwards == 0 {
		t.Error("gpr load to window should reroute or forward")
	}
}

func TestSquashOnGprStoreSpLoadCollision(t *testing.T) {
	// store via $gpr to X; then $sp-relative load of X: the morphed load
	// would read a stale SVF value → squash (§3.2).
	sp := stackTop - 64
	insts := []isa.Inst{
		{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -64, Dst: isa.RegSP, Src1: isa.RegSP, Flags: isa.FlagSPImmediate},
		{PC: 0x1004, Kind: isa.KindStore, Src1: 1, Base: 27, Src2: 27, Addr: sp + 24, Size: 8, Dst: isa.RegZero},
		{PC: 0x1008, Kind: isa.KindLoad, Dst: 2, Base: isa.RegSP, Imm: 24, Addr: sp + 24, Size: 8},
	}
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.Squashes != 1 {
		t.Errorf("Squashes = %d, want 1", st.Squashes)
	}

	// With the no_squash code generator, the collision costs no flush.
	mc := tinyMachine()
	mc.NoSquash = true
	env2 := testEnv(t, mc, PolicySVF, 2)
	st2 := run(t, env2, insts)
	if st2.Squashes != 1 {
		t.Errorf("collision still detected, got %d", st2.Squashes)
	}
	if st2.Cycles > st.Cycles {
		t.Errorf("no_squash (%d cycles) should not be slower than squashing (%d)", st2.Cycles, st.Cycles)
	}
}

func TestDecodeInterlockOnComputedSP(t *testing.T) {
	// A non-immediate $sp update stalls decode until it resolves (§3.1).
	insts := []isa.Inst{
		{PC: 0x1000, Kind: isa.KindSPAdjust, Imm: -64, Dst: isa.RegSP, Src1: isa.RegSP, Src2: 1}, // computed
	}
	for i := 0; i < 20; i++ {
		insts = append(insts, mkALU(0x1004+uint64(i*4), uint8(1+i%8), isa.RegZero))
	}
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	st := run(t, env, insts)
	if st.Interlocks == 0 {
		t.Error("computed $sp update should interlock decode under the SVF")
	}
	// The baseline needs no interlock.
	st2 := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	if st2.Interlocks != 0 {
		t.Errorf("baseline interlocked %d times", st2.Interlocks)
	}
}

func TestStackCacheRouting(t *testing.T) {
	insts := svfTestTrace(50)
	env := testEnv(t, tinyMachine(), PolicyStackCache, 2)
	st := run(t, env, insts)
	if st.StackRefs == 0 {
		t.Error("stack cache received no references")
	}
	if st.SVFRefs != 0 {
		t.Error("SVF refs counted in a stack-cache run")
	}
}

func TestContextSwitchPeriod(t *testing.T) {
	insts := svfTestTrace(300) // 601 instructions
	env := testEnv(t, tinyMachine(), PolicySVF, 2)
	env.CtxSwitchPeriod = 100
	st := run(t, env, insts)
	if st.CtxSwitches != 6 {
		t.Errorf("CtxSwitches = %d, want 6", st.CtxSwitches)
	}
	if got := env.Stack.SVF.Stats().CtxSwitches; got != 6 {
		t.Errorf("SVF saw %d switches", got)
	}
}

func TestRUUFullStalls(t *testing.T) {
	// A long-latency head (serial mult chain) with a tiny RUU must
	// produce window-full stalls.
	var insts []isa.Inst
	for i := 0; i < 30; i++ {
		insts = append(insts, isa.Inst{PC: 0x1000 + uint64(i*4), Kind: isa.KindMult, Dst: 1, Src1: 1})
	}
	for i := 0; i < 100; i++ {
		insts = append(insts, mkALU(0x2000+uint64(i*4), uint8(2+i%8), isa.RegZero))
	}
	st := run(t, testEnv(t, tinyMachine(), PolicyNone, 0), insts)
	if st.RUUFullStalls == 0 {
		t.Error("expected RUU-full stalls")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*MachineConfig){
		func(m *MachineConfig) { m.Width = 0 },
		func(m *MachineConfig) { m.IFQSize = 1 },
		func(m *MachineConfig) { m.RUUSize = 2 },
		func(m *MachineConfig) { m.LSQSize = 1 },
		func(m *MachineConfig) { m.IntALU = 0 },
		func(m *MachineConfig) { m.DL1Ports = 0 },
		func(m *MachineConfig) { m.ALULat = 0 },
	}
	for i, mut := range bad {
		mc := tinyMachine()
		mut(&mc)
		if err := mc.Validate(); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
	if err := SixteenWide().Validate(); err != nil {
		t.Errorf("SixteenWide invalid: %v", err)
	}
}

func TestTable2Presets(t *testing.T) {
	for _, c := range []struct {
		mc                   MachineConfig
		width, ruu, lsq, ifq int
	}{
		{FourWide(), 4, 64, 32, 16},
		{EightWide(), 8, 128, 64, 32},
		{SixteenWide(), 16, 256, 128, 64},
	} {
		if c.mc.Width != c.width || c.mc.RUUSize != c.ruu || c.mc.LSQSize != c.lsq || c.mc.IFQSize != c.ifq {
			t.Errorf("%s: %+v does not match Table 2", c.mc.Name, c.mc)
		}
		if c.mc.IntALU != 16 || c.mc.IntMult != 4 {
			t.Errorf("%s: FU pools do not match Table 2", c.mc.Name)
		}
		if c.mc.StoreForwardLat != 3 {
			t.Errorf("%s: store forwarding %d, want 3", c.mc.Name, c.mc.StoreForwardLat)
		}
	}
}

func TestNewValidation(t *testing.T) {
	env := testEnv(t, tinyMachine(), PolicyNone, 0)
	env.Hier = nil
	if _, err := New(env); err == nil {
		t.Error("nil hierarchy should fail")
	}
	env = testEnv(t, tinyMachine(), PolicyNone, 0)
	env.Pred = nil
	if _, err := New(env); err == nil {
		t.Error("nil predictor should fail")
	}
	env = testEnv(t, tinyMachine(), PolicyNone, 0)
	env.Stack.Policy = PolicySVF // without an SVF
	if _, err := New(env); err == nil {
		t.Error("SVF policy without SVF should fail")
	}
	env = testEnv(t, tinyMachine(), PolicyNone, 0)
	env.Stack.Policy = PolicyStackCache
	if _, err := New(env); err == nil {
		t.Error("stack-cache policy without cache should fail")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyNone.String() != "baseline" || PolicySVF.String() != "svf" || PolicyStackCache.String() != "stackcache" {
		t.Error("policy names wrong")
	}
}

func TestIPC(t *testing.T) {
	s := Stats{Cycles: 100, Committed: 250}
	if s.IPC() != 2.5 {
		t.Errorf("IPC = %g", s.IPC())
	}
	if (Stats{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
}
