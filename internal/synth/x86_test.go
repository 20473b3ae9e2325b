package synth

import (
	"testing"

	"svf/internal/isa"
	"svf/internal/regions"
)

func TestX86VariantEmitsPartialWords(t *testing.T) {
	prof := X86Variant(Crafty())
	g, err := NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	var mem, sub uint64
	sizes := map[uint8]uint64{}
	for i := 0; i < 300000; i++ {
		g.Next(&in)
		if !in.IsMem() {
			continue
		}
		mem++
		sizes[in.Size]++
		if in.Size < isa.WordSize {
			sub++
		}
	}
	frac := float64(sub) / float64(mem)
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("partial-word fraction %.3f, want ≈ 0.35", frac)
	}
	for _, sz := range []uint8{1, 2, 4, 8} {
		if sizes[sz] == 0 {
			t.Errorf("no %d-byte accesses emitted", sz)
		}
	}
	for sz := range sizes {
		switch sz {
		case 1, 2, 4, 8:
		default:
			t.Errorf("unexpected access size %d", sz)
		}
	}
}

func TestX86VariantIncreasesStackShare(t *testing.T) {
	alphaC := Characterize(mustGen(t, Crafty()), regions.DefaultLayout(), 400000)
	x86C := Characterize(mustGen(t, X86Variant(Crafty())), regions.DefaultLayout(), 400000)
	if x86C.StackFrac() <= alphaC.StackFrac()-0.05 {
		t.Errorf("x86 stack share %.3f should be at least the Alpha share %.3f",
			x86C.StackFrac(), alphaC.StackFrac())
	}
}

func TestX86VariantDeterministic(t *testing.T) {
	p := X86Variant(Gzip())
	a, b := traceOf(t, p, 5000), traceOf(t, p, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("x86 trace diverges at %d", i)
		}
	}
}

func TestAlphaProfilesHaveNoPartialWords(t *testing.T) {
	// The paper's Alpha workloads use the 64-bit natural granularity.
	for _, p := range Benchmarks() {
		if p.SubWordFrac != 0 {
			t.Errorf("%s: SubWordFrac = %g, want 0", p.ID(), p.SubWordFrac)
		}
	}
}

func TestSubWordFracValidation(t *testing.T) {
	p := *Gzip()
	p.SubWordFrac = 1.5
	if err := p.Validate(); err == nil {
		t.Error("SubWordFrac > 1 should fail validation")
	}
}

func mustGen(t *testing.T, p *Profile) *Generator {
	t.Helper()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSVFCodeGenEliminatesCollisions(t *testing.T) {
	// With the SVF-aware code generator, the eon collision pattern
	// ($gpr store then $sp load of the same address) disappears from the
	// trace while the access mix stays comparable.
	count := func(codegen bool) int {
		p := *Eon()
		p.Seed = 777 // fresh seed; both variants share it
		p.SVFCodeGen = codegen
		g, err := NewGenerator(&p)
		if err != nil {
			t.Fatal(err)
		}
		layout := regions.DefaultLayout()
		var window []uint64
		collisions := 0
		var in isa.Inst
		for i := 0; i < 300000; i++ {
			g.Next(&in)
			if in.Kind == isa.KindStore && layout.InStack(in.Addr) && !in.SPRelative() && in.Base != isa.RegFP {
				window = append(window, in.Addr)
				if len(window) > 8 {
					window = window[1:]
				}
				continue
			}
			if in.Kind == isa.KindLoad && in.SPRelative() {
				for _, a := range window {
					if a == in.Addr {
						collisions++
						break
					}
				}
			}
		}
		return collisions
	}
	with := count(false)
	without := count(true)
	if with < 50 {
		t.Fatalf("baseline eon shows only %d collisions", with)
	}
	if without > with/10 {
		t.Errorf("SVF code generator left %d collisions (baseline %d)", without, with)
	}
}
