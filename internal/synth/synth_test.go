package synth

import (
	"testing"

	"svf/internal/isa"
	"svf/internal/regions"
)

func TestProfileValidation(t *testing.T) {
	good := Bzip2()
	if err := good.Validate(); err != nil {
		t.Fatalf("bundled profile invalid: %v", err)
	}
	mutations := []func(*Profile){
		func(p *Profile) { p.MemFrac = 0.95 },
		func(p *Profile) { p.StackFrac = 1.5 },
		func(p *Profile) { p.SPFrac = 0.9; p.FPFrac = 0.2 },
		func(p *Profile) { p.NumFuncs = 1 },
		func(p *Profile) { p.FrameWordsMin = 1 },
		func(p *Profile) { p.FrameWordsMax = 2; p.FrameWordsMin = 5 },
		func(p *Profile) { p.BodyLenMin = 2 },
		func(p *Profile) { p.DepthTypicalWords = 0 },
		func(p *Profile) { p.DepthBurstWords = 10; p.DepthTypicalWords = 100 },
		func(p *Profile) { p.LoopTripMin = 0 },
		func(p *Profile) { p.InvocationLen = 10 },
		func(p *Profile) { p.EpisodeLen = 100 },
		func(p *Profile) { p.SubtreeLen = 50 },
	}
	for i, mut := range mutations {
		p := *Bzip2()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestBenchmarkSets(t *testing.T) {
	b := Benchmarks()
	if len(b) != 12 {
		t.Fatalf("Benchmarks() returned %d profiles, want 12 (Table 1)", len(b))
	}
	inputs := BenchmarkInputs()
	if len(inputs) != 17 {
		t.Fatalf("BenchmarkInputs() returned %d, want 17 (Table 3 rows)", len(inputs))
	}
	seen := map[string]bool{}
	for _, p := range inputs {
		id := p.ID()
		if seen[id] {
			t.Errorf("duplicate benchmark input %q", id)
		}
		seen[id] = true
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", id, err)
		}
	}
	if ByName("176.gcc") == nil || ByName("176.gcc.cp-decl") == nil {
		t.Error("ByName should resolve both name and id forms")
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown names")
	}
}

func TestWithInputChangesSeed(t *testing.T) {
	a := Gzip()
	b := a.WithInput("log", 1)
	if a.Seed == b.Seed {
		t.Error("input variant should perturb the seed")
	}
	if b.Input != "log" {
		t.Error("input name not applied")
	}
	if b.ID() != "164.gzip.log" {
		t.Errorf("ID = %q", b.ID())
	}
}

// traceOf builds prof's program afresh and returns its first n
// instructions.
func traceOf(t *testing.T, prof *Profile, n int) []isa.Inst {
	t.Helper()
	prog, err := BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return TraceFor(prog, n)
}

func TestGeneratorDeterminism(t *testing.T) {
	prof := Crafty()
	a, b := traceOf(t, prof, 20000), traceOf(t, prof, 20000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at instruction %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGeneratorResetReplays(t *testing.T) {
	g, err := NewGenerator(Gzip())
	if err != nil {
		t.Fatal(err)
	}
	var first [100]isa.Inst
	var in isa.Inst
	for i := range first {
		g.Next(&in)
		first[i] = in
	}
	g.Reset()
	for i := range first {
		g.Next(&in)
		if in != first[i] {
			t.Fatalf("replay diverges at %d", i)
		}
	}
}

// TestTraceWellFormed checks structural invariants of generated traces.
func TestTraceWellFormed(t *testing.T) {
	layout := regions.DefaultLayout()
	for _, prof := range Benchmarks() {
		prof := prof
		t.Run(prof.ID(), func(t *testing.T) {
			t.Parallel()
			g, err := NewGenerator(prof)
			if err != nil {
				t.Fatal(err)
			}
			var in isa.Inst
			var sp uint64
			spKnown := false
			calls, rets := 0, 0
			for i := 0; i < 200000; i++ {
				if !g.Next(&in) {
					t.Fatal("generator exhausted")
				}
				switch in.Kind {
				case isa.KindSPAdjust:
					if !spKnown {
						sp = layout.StackBase - 4096
						spKnown = true
					}
					sp = uint64(int64(sp) + int64(in.Imm))
					if sp > layout.StackBase {
						t.Fatalf("inst %d: sp rose above the stack base", i)
					}
				case isa.KindLoad, isa.KindStore:
					if in.Size != isa.WordSize {
						t.Fatalf("inst %d: size %d", i, in.Size)
					}
					r := layout.Classify(in.Addr)
					if r == regions.RegionOther || r == regions.RegionText {
						t.Fatalf("inst %d: data access to %v (%#x)", i, r, in.Addr)
					}
					if r == regions.RegionStack {
						if in.Addr%isa.WordSize != 0 {
							t.Fatalf("inst %d: unaligned stack access %#x", i, in.Addr)
						}
						if spKnown && in.Addr < sp {
							t.Fatalf("inst %d: reference beyond the TOS (%#x < sp %#x)", i, in.Addr, sp)
						}
						if in.SPRelative() && spKnown {
							if want := uint64(int64(sp) + int64(in.Imm)); want != in.Addr {
								t.Fatalf("inst %d: $sp-relative address mismatch: %#x vs %#x", i, in.Addr, want)
							}
						}
					}
					if in.Kind == isa.KindStore && (r == regions.RegionROData) {
						t.Fatalf("inst %d: store to read-only data", i)
					}
				case isa.KindCall:
					calls++
					if !in.Taken() {
						t.Fatalf("inst %d: call not taken", i)
					}
				case isa.KindReturn:
					rets++
				}
				if in.PC < layout.TextBase || in.PC >= layout.TextBase+layout.TextSize {
					t.Fatalf("inst %d: PC %#x outside text", i, in.PC)
				}
			}
			if calls == 0 || rets == 0 {
				t.Fatalf("no call/return activity (calls=%d rets=%d)", calls, rets)
			}
			// Calls and returns balance within the live stack depth.
			if diff := calls - rets; diff < 0 || diff > maxFrames {
				t.Fatalf("call/return imbalance: %d", diff)
			}
		})
	}
}

// TestCalibrationBands checks that generated traces land near their
// profiles' Figure 1/2/3 targets.
func TestCalibrationBands(t *testing.T) {
	layout := regions.DefaultLayout()
	for _, prof := range Benchmarks() {
		prof := prof
		t.Run(prof.ID(), func(t *testing.T) {
			t.Parallel()
			g, err := NewGenerator(prof)
			if err != nil {
				t.Fatal(err)
			}
			c := Characterize(g, layout, 2_000_000)
			if d := c.MemFrac() - prof.MemFrac; d < -0.08 || d > 0.08 {
				t.Errorf("MemFrac %.3f vs target %.3f", c.MemFrac(), prof.MemFrac)
			}
			if d := c.StackFrac() - prof.StackFrac; d < -0.12 || d > 0.12 {
				t.Errorf("StackFrac %.3f vs target %.3f", c.StackFrac(), prof.StackFrac)
			}
			// $sp must dominate stack access (82% average in the paper);
			// eon is the $gpr-heavy outlier.
			spf := c.MethodFrac(regions.MethodSP)
			if prof.Name == "252.eon" {
				if gpr := c.MethodFrac(regions.MethodGPR); gpr < 0.25 {
					t.Errorf("eon $gpr fraction %.3f, want >= 0.25", gpr)
				}
			} else if spf < 0.65 {
				t.Errorf("$sp fraction %.3f, want >= 0.65", spf)
			}
			// Offset locality: nearly everything within 8KB of TOS
			// (paper: >99% except gcc; our perlbmk trades a little of
			// this for its deep-aliasing anomaly — see DESIGN.md).
			minW := 0.97
			switch prof.Name {
			case "176.gcc":
				minW = 0
			case "253.perlbmk":
				minW = 0.94
			}
			if w := c.Within8KB(); w < minW {
				t.Errorf("within-8KB fraction %.4f, want >= %.2f", w, minW)
			}
			// Depth reaches at least half the typical target and does
			// not exceed ~1.3x the burst target.
			if c.MaxDepthWords < uint64(prof.DepthTypicalWords)/2 {
				t.Errorf("max depth %d words never approached target %d", c.MaxDepthWords, prof.DepthTypicalWords)
			}
			if c.MaxDepthWords > uint64(float64(prof.DepthBurstWords)*1.3) {
				t.Errorf("max depth %d words exceeds burst cap %d", c.MaxDepthWords, prof.DepthBurstWords)
			}
		})
	}
}

func TestBzip2OffsetsTiny(t *testing.T) {
	// 256.bzip2's references average just a few bytes from TOS (paper:
	// 2.5B); ours should stay well under 64B.
	g, err := NewGenerator(Bzip2())
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(g, regions.DefaultLayout(), 1_000_000)
	if m := c.MeanOffsetBytes(); m > 64 {
		t.Errorf("bzip2 mean offset %.1fB, want <= 64B", m)
	}
}

func TestGccOffsetsWide(t *testing.T) {
	// 176.gcc averages hundreds of bytes from TOS (paper: 380B).
	g, err := NewGenerator(Gcc())
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(g, regions.DefaultLayout(), 1_000_000)
	if m := c.MeanOffsetBytes(); m < 100 {
		t.Errorf("gcc mean offset %.1fB, want >= 100B", m)
	}
}

func TestEonAliasPairs(t *testing.T) {
	// eon must contain the $gpr-store → $sp-load collision pattern: a
	// store with a pointer base followed within a few instructions by an
	// $sp-relative load of the same address.
	g, err := NewGenerator(Eon())
	if err != nil {
		t.Fatal(err)
	}
	layout := regions.DefaultLayout()
	var window []uint64 // addresses of the last few $gpr stack stores
	collisions := 0
	var in isa.Inst
	for i := 0; i < 500000; i++ {
		g.Next(&in)
		if in.Kind == isa.KindStore && layout.InStack(in.Addr) && !in.SPRelative() && in.Base != isa.RegFP {
			window = append(window, in.Addr)
			if len(window) > 8 {
				window = window[1:]
			}
			continue
		}
		if in.Kind == isa.KindLoad && in.SPRelative() {
			for _, addr := range window {
				if addr == in.Addr {
					collisions++
					break
				}
			}
		}
	}
	if collisions < 100 {
		t.Errorf("eon produced only %d collision patterns in 500k instructions", collisions)
	}
}

func TestStackWrittenBeforeRead(t *testing.T) {
	// The paper's key stack property: locations are overwhelmingly
	// written before they are read (first reference is a store).
	g, err := NewGenerator(Crafty())
	if err != nil {
		t.Fatal(err)
	}
	layout := regions.DefaultLayout()
	written := map[uint64]bool{}
	var reads, coldReads int
	var in isa.Inst
	for i := 0; i < 500000; i++ {
		g.Next(&in)
		if !in.IsMem() || !layout.InStack(in.Addr) {
			continue
		}
		if in.Kind == isa.KindStore {
			written[in.Addr] = true
			continue
		}
		reads++
		if !written[in.Addr] {
			coldReads++
		}
	}
	if reads == 0 {
		t.Fatal("no stack reads")
	}
	frac := float64(coldReads) / float64(reads)
	if frac > 0.10 {
		t.Errorf("%.1f%% of stack reads were never-written locations, want <= 10%%", frac*100)
	}
}

func TestBuildProgramErrors(t *testing.T) {
	p := *Gzip()
	p.MemFrac = 2 // invalid
	if _, err := BuildProgram(&p); err == nil {
		t.Error("invalid profile should fail to build")
	}
}

func TestMixerFrequencies(t *testing.T) {
	m := newMixer(0.7, 0.2, 0.1)
	counts := [3]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[m.Next()]++
	}
	for i, want := range []float64{0.7, 0.2, 0.1} {
		got := float64(counts[i]) / n
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("mixer category %d frequency %.3f, want %.3f±0.01", i, got, want)
		}
	}
}

func TestProgramFunctionsHaveDistinctPCs(t *testing.T) {
	prog := mustBuild(t, Vpr())
	seen := map[uint64]bool{}
	for _, f := range prog.funcs {
		for _, tm := range f.tmpls {
			if seen[tm.pc] {
				t.Fatalf("duplicate PC %#x", tm.pc)
			}
			seen[tm.pc] = true
		}
	}
	if len(prog.funcs) != Vpr().NumFuncs {
		t.Errorf("%d functions, want %d", len(prog.funcs), Vpr().NumFuncs)
	}
}
