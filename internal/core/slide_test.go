package core

import (
	"testing"

	"svf/internal/isa"
)

// These tests pin the counter semantics of whole-window slides — the $sp
// deltas of a full window or more that coroutine switches and deep-recursion
// bursts produce constantly, and that ordinary call/return traffic almost
// never exercises.

func TestFullSlideAllocSpillsLiveAndKillsWindow(t *testing.T) {
	s, l1 := newSVF(t, 128) // 16 entries, window [base, base+128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-32, true, false)
	pre := s.Stats()

	// Slide by exactly the window size: every live word leaves, every new
	// slot covers a freshly allocated word.
	s.NotifySPUpdate(base-64, base-64-128)
	st := s.Stats()
	if got := st.QuadWordsOut - pre.QuadWordsOut; got != 2 {
		t.Errorf("QuadWordsOut delta = %d, want 2 (only the live dirty words)", got)
	}
	if l1.writes[base-64] != 1 || l1.writes[base-32] != 1 {
		t.Errorf("dirty words not written back exactly once: %v", l1.writes)
	}
	// The whole new window is dead-on-arrival: one kill per entry, not
	// per word of the (possibly much larger) delta.
	if got := st.AllocKills - pre.AllocKills; got != 16 {
		t.Errorf("AllocKills delta = %d, want 16 (one per entry)", got)
	}
	// Old contents must be gone: a load in the new window demand-fills.
	if lat := s.Access(base-64-128, false, false); lat <= s.Config().HitLatency {
		t.Errorf("load after full slide hit stale state (latency %d)", lat)
	}
}

func TestFullSlideDeallocKillsOnlyDirtyWords(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-32, true, false)
	pre := s.Stats()

	// Pop a full window's worth: the dead dirty words are killed, never
	// written back.
	s.NotifySPUpdate(base-64, base-64+128)
	st := s.Stats()
	if got := st.DeallocKills - pre.DeallocKills; got != 2 {
		t.Errorf("DeallocKills delta = %d, want 2 (the dirty words)", got)
	}
	if got := st.QuadWordsOut - pre.QuadWordsOut; got != 0 {
		t.Errorf("full-window pop wrote back %d words", got)
	}
	if len(l1.writes) != 0 {
		t.Errorf("backing store saw writes on a kill: %v", l1.writes)
	}
}

func TestFullSlideDeallocDisableKillsWritesBackNotKills(t *testing.T) {
	// With kills disabled the structure has no liveness knowledge: a
	// full-window pop writes its dirty words back like any cache — and
	// those writebacks are NOT dealloc kills. Counting both (the old
	// behaviour) credited the ablated configuration with the very
	// optimisation it ablates.
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128, DisableKills: true}, l1)
	s.NotifySPUpdate(base, base)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-32, true, false)
	pre := s.Stats()

	s.NotifySPUpdate(base-64, base-64+128)
	st := s.Stats()
	if got := st.DeallocKills - pre.DeallocKills; got != 0 {
		t.Errorf("DeallocKills delta = %d, want 0 under DisableKills", got)
	}
	if got := st.QuadWordsOut - pre.QuadWordsOut; got != 2 {
		t.Errorf("QuadWordsOut delta = %d, want 2 (dirty words written back)", got)
	}
	if l1.writes[base-64] != 1 || l1.writes[base-32] != 1 {
		t.Errorf("dirty words not written back exactly once: %v", l1.writes)
	}
}

func TestContextSwitchFlushesExactlyDirtyWordsOnce(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-56, true, false)
	s.Access(base-32, true, false)
	s.Access(base-24, false, false) // clean fill: must not flush
	pre := s.Stats()

	s.ContextSwitch()
	st := s.Stats()
	if want := uint64(3 * isa.WordSize); st.CtxBytes != want {
		t.Errorf("CtxBytes = %d, want %d (three dirty words)", st.CtxBytes, want)
	}
	// Table 4 traffic is accounted separately from Table 3: the flush
	// must not inflate QuadWordsOut.
	if got := st.QuadWordsOut - pre.QuadWordsOut; got != 0 {
		t.Errorf("context flush leaked into QuadWordsOut: %d", got)
	}
	for _, a := range []uint64{base - 64, base - 56, base - 32} {
		if l1.writes[a] != 1 {
			t.Errorf("dirty word %#x flushed %d times, want 1", a, l1.writes[a])
		}
	}
	// Everything was invalidated: an immediate second switch finds no
	// dirty words and moves nothing.
	s.ContextSwitch()
	if got := s.Stats().CtxBytes; got != st.CtxBytes {
		t.Errorf("empty flush moved %d bytes", got-st.CtxBytes)
	}
	if got := s.CtxSwitchBytes(); got != 3*isa.WordSize/2 {
		t.Errorf("CtxSwitchBytes = %d, want %d", got, 3*isa.WordSize/2)
	}
}

func TestDeepUnwindSpillsOnlyWrittenAddresses(t *testing.T) {
	// Deep recursion at 25× SVF capacity: 200 two-word frames descend
	// through a 16-entry window, every word stored, then the whole stack
	// unwinds. The tagless index math must never alias: the only
	// addresses that may reach the backing store are ones actually
	// written, each at most once, and writebacks + dealloc kills must
	// account for every written word exactly.
	s, l1 := newSVF(t, 128) // 16 entries
	sp := base
	written := map[uint64]bool{}
	const frames = 200
	for i := 0; i < frames; i++ {
		s.NotifySPUpdate(sp, sp-16)
		sp -= 16
		s.Access(sp, true, false)
		s.Access(sp+isa.WordSize, true, false)
		written[sp] = true
		written[sp+isa.WordSize] = true
	}
	for i := 0; i < frames; i++ {
		s.NotifySPUpdate(sp, sp+16)
		sp += 16
	}
	for a, n := range l1.writes {
		if !written[a] {
			t.Errorf("spilled %#x, which was never written (index aliasing)", a)
		}
		if n > 1 {
			t.Errorf("address %#x written back %d times", a, n)
		}
	}
	st := s.Stats()
	if st.QuadWordsOut+st.DeallocKills != uint64(len(written)) {
		t.Errorf("writebacks %d + kills %d != %d words written",
			st.QuadWordsOut, st.DeallocKills, len(written))
	}
}
