package core

import (
	"testing"
	"testing/quick"

	"svf/internal/isa"
)

// TestWindowIndexBijective: within any window position, distinct word
// addresses map to distinct circular entries — the property that lets the
// SVF drop per-entry tags entirely (§3: "almost no tag space").
func TestWindowIndexBijective(t *testing.T) {
	s, _ := newSVF(t, 256) // 32 entries
	f := func(spSeed uint32) bool {
		sp := base - uint64(spSeed%100000)*isa.WordSize
		seen := map[uint64]uint64{}
		for w := 0; w < s.Entries(); w++ {
			addr := sp + uint64(w)*isa.WordSize
			idx := s.index(addr)
			if prev, ok := seen[idx]; ok {
				t.Logf("addresses %#x and %#x share entry %d", prev, addr, idx)
				return false
			}
			seen[idx] = addr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIndexStableAcrossSlides: an address keeps the same circular entry for
// as long as it stays inside the window, no matter how the window slides —
// the low-order-bits mapping needs no relocation on $sp changes.
func TestIndexStableAcrossSlides(t *testing.T) {
	s, _ := newSVF(t, 256)
	addr := base - 8*isa.WordSize
	s.NotifySPUpdate(base, base-16*isa.WordSize)
	idx0 := s.index(addr)
	for i := 0; i < 10; i++ {
		s.NotifySPUpdate(s.sp, s.sp-isa.WordSize)
		if !s.Contains(addr) {
			break
		}
		if got := s.index(addr); got != idx0 {
			t.Fatalf("entry moved from %d to %d after slide %d", idx0, got, i)
		}
	}
}

// TestQuadWordConservation: fills only happen for loads of words the SVF
// does not hold; total fills can never exceed total loads.
func TestQuadWordConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		l1 := newRecording()
		s := mustNew(Config{SizeBytes: 128}, l1)
		sp := base
		s.NotifySPUpdate(sp, sp)
		var loads uint64
		for _, op := range ops {
			kind := op % 4
			off := uint64((op / 4) % 16)
			switch kind {
			case 0:
				if sp > base-1<<16 {
					s.NotifySPUpdate(sp, sp-8)
					sp -= 8
				}
			case 1:
				if sp < base {
					s.NotifySPUpdate(sp, sp+8)
					sp += 8
				}
			case 2:
				if sp < base {
					s.Access(sp+off*isa.WordSize, true, false)
				}
			default:
				if sp < base {
					s.Access(sp+off*isa.WordSize, false, false)
					loads++
				}
			}
		}
		return s.Stats().Fills <= loads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
