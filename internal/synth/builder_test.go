package synth

import (
	"math/rand/v2"
	"testing"

	"svf/internal/isa"
	"svf/internal/regions"
)

// mustBuild builds a bundled (pre-validated) profile's program.
func mustBuild(t *testing.T, prof *Profile) *Program {
	t.Helper()
	p, err := BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rawDraws are the profile's own targets, uncorrected by calibration.
func rawDraws(prof *Profile) draws {
	return draws{memP: prof.MemFrac, stackP: prof.StackFrac,
		methodW: [3]float64{prof.SPFrac, prof.FPFrac, 1 - prof.SPFrac - prof.FPFrac}}
}

func testBuilder(prof *Profile) *builder {
	b := &builder{prof: prof, rng: rand.New(rand.NewPCG(1, 2)), draws: rawDraws(prof)}
	b.initSharedMixers()
	b.resetSlotMixer()
	return b
}

func TestLocalOffsetWithinFrame(t *testing.T) {
	prof := Gcc()
	b := testBuilder(prof)
	f := &function{frameWords: 64, saveWords: 3}
	for i := 0; i < 2000; i++ {
		off := b.localOffset(f)
		if off < int32(f.saveWords) || off >= int32(f.frameWords) {
			t.Fatalf("offset %d outside [save %d, frame %d)", off, f.saveWords, f.frameWords)
		}
	}
}

func TestLocalOffsetDegenerateFrame(t *testing.T) {
	b := testBuilder(Gzip())
	f := &function{frameWords: 2, saveWords: 2} // no local space
	if off := b.localOffset(f); off != 2 {
		t.Errorf("degenerate frame offset = %d, want saveWords", off)
	}
}

func TestLocalOffsetGeometricBias(t *testing.T) {
	// bzip2's geometric parameter concentrates offsets at the frame top;
	// gcc's spreads them.
	tight := testBuilder(Bzip2())
	wide := testBuilder(Gcc())
	fr := &function{frameWords: 64, saveWords: 2}
	sum := func(b *builder) (s int64) {
		for i := 0; i < 4000; i++ {
			s += int64(b.localOffset(fr))
		}
		return
	}
	if sum(tight) >= sum(wide) {
		t.Error("tight geometric parameter should give smaller mean offsets")
	}
}

func TestDrawSizeDistribution(t *testing.T) {
	alpha := testBuilder(Crafty())
	for i := 0; i < 100; i++ {
		if sz := alpha.drawSize(); sz != 0 {
			t.Fatalf("Alpha profile drew sub-word size %d", sz)
		}
	}
	x86 := testBuilder(X86Variant(Crafty()))
	counts := map[uint8]int{}
	for i := 0; i < 10000; i++ {
		counts[x86.drawSize()]++
	}
	sub := counts[1] + counts[2] + counts[4]
	frac := float64(sub) / 10000
	if frac < 0.3 || frac > 0.4 {
		t.Errorf("sub-word draw fraction %.3f, want ≈ 0.35", frac)
	}
	for _, sz := range []uint8{1, 2, 4} {
		if counts[sz] == 0 {
			t.Errorf("size %d never drawn", sz)
		}
	}
}

func TestScratchRegistersExcludeReserved(t *testing.T) {
	for _, r := range scratchRegs {
		switch r {
		case isa.RegSP, isa.RegFP, isa.RegRA, isa.RegZero, 27, 28, 29:
			t.Errorf("scratch register set contains reserved r%d", r)
		}
	}
	if len(scratchRegs) < 20 {
		t.Errorf("only %d scratch registers", len(scratchRegs))
	}
}

func TestBuildFunctionShape(t *testing.T) {
	b := testBuilder(Crafty())
	f := b.buildFunction(3)
	if f.tmpls[0].kind != tFrameAlloc {
		t.Error("function must start with the frame allocation")
	}
	if f.tmpls[len(f.tmpls)-1].kind != tRet {
		t.Error("non-main function must end with a return")
	}
	// RA save right after the allocation; RA restore right before the
	// frame free.
	if f.tmpls[1].kind != tMem || f.tmpls[1].offW != 0 || f.tmpls[1].isLoad {
		t.Error("missing RA save at frame offset 0")
	}
	n := len(f.tmpls)
	if f.tmpls[n-2].kind != tFrameFree {
		t.Error("missing frame free before return")
	}
	if f.tmpls[n-3].kind != tMem || !f.tmpls[n-3].isLoad || f.tmpls[n-3].offW != 0 {
		t.Error("missing RA restore")
	}
	// Loop begin/end templates must pair up.
	depth := 0
	for _, tm := range f.tmpls {
		switch tm.kind {
		case tLoopBegin:
			depth++
		case tLoopEnd:
			depth--
			if depth < 0 {
				t.Fatal("loop end without begin")
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced loops: %d", depth)
	}
}

func TestMainFunctionShape(t *testing.T) {
	b := testBuilder(Crafty())
	m := b.buildFunction(0)
	if m.tmpls[len(m.tmpls)-1].kind == tRet {
		t.Error("main must not return")
	}
	calls := 0
	for _, tm := range m.tmpls {
		if tm.kind == tCall {
			calls++
		}
	}
	if calls < 10 {
		t.Errorf("main has only %d call sites; it is the dispatcher", calls)
	}
}

func TestBranchPartnersInRange(t *testing.T) {
	prog := mustBuild(t, Eon())
	for _, f := range prog.funcs {
		for i, tm := range f.tmpls {
			switch tm.kind {
			case tBranch:
				if int(tm.partner) < i || int(tm.partner) > len(f.tmpls) {
					t.Fatalf("branch partner %d out of range at %d", tm.partner, i)
				}
			case tLoopEnd:
				if int(tm.partner) < 0 || int(tm.partner) >= i {
					t.Fatalf("loop end partner %d invalid at %d", tm.partner, i)
				}
				if f.tmpls[tm.partner].kind != tLoopBegin {
					t.Fatalf("loop end partner at %d is %v", tm.partner, f.tmpls[tm.partner].kind)
				}
			case tCall:
				if int(tm.callee) <= 0 || int(tm.callee) >= len(prog.funcs) {
					t.Fatalf("callee %d out of range", tm.callee)
				}
			}
		}
	}
}

func TestCalibrationConverges(t *testing.T) {
	// buildOnce with raw parameters vs the calibrated BuildProgram: the
	// calibrated program must land closer to the targets.
	prof := Vortex()
	raw, err := buildOnce(prof, rawDraws(prof))
	if err != nil {
		t.Fatal(err)
	}
	calibrated := mustBuild(t, prof)
	mRaw := measureMix(raw, 400_000)
	mCal := measureMix(calibrated, 400_000)
	errRaw := abs(mRaw.mem-prof.MemFrac) + abs(mRaw.stack-prof.StackFrac)
	errCal := abs(mCal.mem-prof.MemFrac) + abs(mCal.stack-prof.StackFrac)
	if errCal > errRaw+0.01 {
		t.Errorf("calibration made the mix worse: %.3f vs %.3f", errCal, errRaw)
	}
	if errCal > 0.12 {
		t.Errorf("calibrated mix error %.3f too large", errCal)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestMethodOfAgreesWithEmission(t *testing.T) {
	// Every $sp-relative emission must carry Base == RegSP so that the
	// pre-decode morphing in the pipeline can identify it.
	g, err := NewGenerator(Parser())
	if err != nil {
		t.Fatal(err)
	}
	layout := regions.DefaultLayout()
	var in isa.Inst
	for i := 0; i < 100_000; i++ {
		g.Next(&in)
		if !in.IsMem() || !layout.InStack(in.Addr) {
			continue
		}
		switch regions.MethodOf(in.Base) {
		case regions.MethodSP:
			if in.Base != isa.RegSP {
				t.Fatal("method/base mismatch")
			}
		case regions.MethodFP:
			if in.Base != isa.RegFP {
				t.Fatal("fp method with wrong base")
			}
		}
	}
}
