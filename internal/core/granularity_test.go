package core

import (
	"testing"

	"svf/internal/isa"
)

func newGranSVF(t *testing.T, size, gran int) (*SVF, *recordingLevel) {
	t.Helper()
	l1 := newRecording()
	s, err := New(Config{SizeBytes: size, StatusGranularityWords: gran}, l1)
	if err != nil {
		t.Fatal(err)
	}
	s.NotifySPUpdate(base, base)
	return s, l1
}

func TestGranularityValidation(t *testing.T) {
	l1 := newRecording()
	if _, err := New(Config{SizeBytes: 128, StatusGranularityWords: 3}, l1); err == nil {
		t.Error("non-power-of-two granularity should fail")
	}
	if _, err := New(Config{SizeBytes: 128, StatusGranularityWords: 32}, l1); err == nil {
		t.Error("granularity above the entry count should fail")
	}
	if _, err := New(Config{SizeBytes: 128, StatusGranularityWords: 16}, l1); err != nil {
		t.Errorf("granularity == entries should be legal: %v", err)
	}
}

func TestCoarseGranuleFillFetchesWholeGranule(t *testing.T) {
	s, l1 := newGranSVF(t, 256, 4) // 32 entries, 4-word granules
	s.NotifySPUpdate(base, base-128)
	// A load of one invalid word fetches its whole (aligned) granule.
	s.Access(base-128, false, false)
	if got := s.Stats().QuadWordsIn; got != 4 {
		t.Errorf("QuadWordsIn = %d, want 4 (whole granule)", got)
	}
	if len(l1.reads) != 4 {
		t.Errorf("L1 saw %d reads, want 4", len(l1.reads))
	}
	// The granule's other words are now valid: no more fills.
	s.Access(base-120, false, false)
	s.Access(base-112, false, false)
	if got := s.Stats().QuadWordsIn; got != 4 {
		t.Errorf("QuadWordsIn grew to %d on intra-granule loads", got)
	}
}

func TestCoarseGranuleWriteDirtiesWholeGranule(t *testing.T) {
	s, l1 := newGranSVF(t, 256, 4)
	s.NotifySPUpdate(base, base-128)
	// One store dirties the whole granule (coarse status bits cannot
	// track sub-granule dirtiness) …
	s.Access(base-128, true, false)
	for off := uint64(0); off < 4*isa.WordSize; off += isa.WordSize {
		v, d := entryState(s, base-128+off)
		if !v || !d {
			t.Errorf("granule word +%d: valid=%v dirty=%v, want true/true", off, v, d)
		}
	}
	// … so a context switch writes back all four words (§3.3: larger
	// granularity ⇒ more traffic).
	s.ContextSwitch()
	if got := s.Stats().CtxBytes; got != 4*isa.WordSize {
		t.Errorf("CtxBytes = %d, want 32 (whole granule)", got)
	}
	if len(l1.writes) != 4 {
		t.Errorf("flush wrote %d words, want 4", len(l1.writes))
	}
}

func TestFineGranularityWritesBackOnlyDirtyWord(t *testing.T) {
	s, l1 := newGranSVF(t, 256, 1)
	s.NotifySPUpdate(base, base-128)
	s.Access(base-128, true, false)
	s.ContextSwitch()
	if got := s.Stats().CtxBytes; got != isa.WordSize {
		t.Errorf("CtxBytes = %d, want 8 (one word)", got)
	}
	if len(l1.writes) != 1 {
		t.Errorf("flush wrote %d words, want 1", len(l1.writes))
	}
}

func TestGranularityTrafficOrdering(t *testing.T) {
	// Property: for any access sequence, coarse granularity never moves
	// less data than fine granularity.
	mkSeq := func(gran int) uint64 {
		s, _ := newGranSVF(t, 256, gran)
		sp := base
		s.NotifySPUpdate(sp, sp-128)
		sp -= 128
		for i := 0; i < 400; i++ {
			off := uint64((i * 7) % 16)
			if i%3 == 0 {
				s.Access(sp+off*isa.WordSize, true, false)
			} else {
				s.Access(sp+off*isa.WordSize, false, false)
			}
			if i%37 == 0 {
				s.NotifySPUpdate(sp, sp+64)
				s.NotifySPUpdate(sp+64, sp)
			}
		}
		st := s.Stats()
		return st.QuadWordsIn + st.QuadWordsOut
	}
	fine := mkSeq(1)
	coarse := mkSeq(8)
	if coarse < fine {
		t.Errorf("coarse granularity moved less data (%d) than fine (%d)", coarse, fine)
	}
}
