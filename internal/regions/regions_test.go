package regions

import (
	"testing"
	"testing/quick"

	"svf/internal/isa"
)

func TestClassifyKnownAddresses(t *testing.T) {
	l := DefaultLayout()
	cases := []struct {
		addr uint64
		want Region
	}{
		{l.StackBase - 8, RegionStack},
		{l.StackBase - l.StackMax, RegionStack},
		{l.StackBase, RegionOther}, // one past the top
		{l.GlobalBase, RegionGlobal},
		{l.GlobalBase + l.GlobalSize - 1, RegionGlobal},
		{l.GlobalBase + l.GlobalSize, RegionOther},
		{l.RODataBase, RegionROData},
		{l.TextBase, RegionText},
		{l.TextBase + l.TextSize - 1, RegionText},
		{l.HeapBase, RegionHeap},
		{l.HeapBase + l.HeapSize - 1, RegionHeap},
		{0, RegionOther},
	}
	for _, c := range cases {
		if got := l.Classify(c.addr); got != c.want {
			t.Errorf("Classify(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestRegionsDisjoint(t *testing.T) {
	// Property: every address belongs to exactly one region (Classify is
	// a function), and region boundaries do not overlap.
	l := DefaultLayout()
	type span struct {
		lo, hi uint64 // [lo, hi)
	}
	spans := []span{
		{l.TextBase, l.TextBase + l.TextSize},
		{l.RODataBase, l.RODataBase + l.RODataSize},
		{l.GlobalBase, l.GlobalBase + l.GlobalSize},
		{l.HeapBase, l.HeapBase + l.HeapSize},
		{l.StackBase - l.StackMax, l.StackBase},
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("regions %d and %d overlap: [%#x,%#x) vs [%#x,%#x)", i, j, a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestMethodOf(t *testing.T) {
	if MethodOf(isa.RegSP) != MethodSP {
		t.Error("RegSP should map to MethodSP")
	}
	if MethodOf(isa.RegFP) != MethodFP {
		t.Error("RegFP should map to MethodFP")
	}
	for _, r := range []uint8{0, 1, 14, 16, 27, 29, isa.RegRA} {
		if MethodOf(r) != MethodGPR {
			t.Errorf("r%d should map to MethodGPR", r)
		}
	}
}

func TestStringNames(t *testing.T) {
	for r := Region(0); int(r) < NumRegions; r++ {
		if r.String() == "" {
			t.Errorf("region %d has empty name", r)
		}
	}
	for m := Method(0); int(m) < NumMethods; m++ {
		if m.String() == "" {
			t.Errorf("method %d has empty name", m)
		}
	}
}

func TestInStackQuick(t *testing.T) {
	// Property: InStack(a) ⇔ Classify(a) == RegionStack.
	l := DefaultLayout()
	f := func(a uint64) bool {
		return l.InStack(a) == (l.Classify(a) == RegionStack)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Random inputs almost never land near a bound, so pin each bound
	// and its neighbours, and the ends of the address space.
	lo := l.StackBase - l.StackMax
	for _, a := range []uint64{lo - 1, lo, lo + 1, l.StackBase - 1, l.StackBase, l.StackBase + 1, 0, ^uint64(0)} {
		if !f(a) {
			t.Errorf("InStack(%#x) = %v, Classify = %v", a, l.InStack(a), l.Classify(a))
		}
	}
}
