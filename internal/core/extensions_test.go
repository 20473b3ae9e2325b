package core

import (
	"testing"

	"svf/internal/isa"
)

// --- Partial-word (x86 future-work, §7) ---

func TestSubWordStoreToInvalidRMWs(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	// A 4-byte store to a freshly allocated (invalid) word cannot rely on
	// the allocation kill: the other 4 bytes must be fetched first.
	lat := s.AccessSized(base-64, 4, true, false)
	if lat <= s.Config().HitLatency {
		t.Errorf("partial store to invalid word should pay the RMW fetch, lat=%d", lat)
	}
	st := s.Stats()
	if st.SubWordRMWs != 1 || st.QuadWordsIn != 1 {
		t.Errorf("stats = %+v, want one RMW fill", st)
	}
	if l1.reads[base-64] != 1 {
		t.Error("RMW should read the containing word")
	}
	// The word is now valid: the next partial store is free.
	lat = s.AccessSized(base-64, 2, true, false)
	if lat != s.Config().HitLatency {
		t.Errorf("partial store to valid word lat=%d, want hit", lat)
	}
	if s.Stats().SubWordRMWs != 1 {
		t.Error("second partial store should not RMW")
	}
}

func TestFullWordStoreStillFree(t *testing.T) {
	// Contrast: a full 8-byte first store needs no fetch (allocation
	// kill semantics intact).
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	if lat := s.AccessSized(base-64, 8, true, false); lat != s.Config().HitLatency {
		t.Errorf("full-word first store lat=%d, want hit latency", lat)
	}
	if len(l1.reads) != 0 {
		t.Error("full-word store fetched")
	}
}

func TestSubWordLoadFills(t *testing.T) {
	s, _ := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	lat := s.AccessSized(base-32, 2, false, false)
	if lat <= s.Config().HitLatency {
		t.Error("partial load of invalid word should fill")
	}
	if s.Stats().SubWordRMWs != 0 {
		t.Error("loads are not RMWs")
	}
	// After a full-word store, partial loads hit.
	s.AccessSized(base-24, 8, true, false)
	if lat := s.AccessSized(base-24, 1, false, false); lat != s.Config().HitLatency {
		t.Errorf("partial load of valid word lat=%d", lat)
	}
}

func TestSubWordCountsMorphedRerouted(t *testing.T) {
	s, _ := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.AccessSized(base-64, 4, true, false)
	s.AccessSized(base-64, 4, false, true)
	st := s.Stats()
	if st.MorphedStores != 1 || st.ReroutedLoads != 1 {
		t.Errorf("counters = %+v", st)
	}
}

func TestAccessSizedWordFallsBack(t *testing.T) {
	// Size 8 (or degenerate sizes) must behave exactly like Access.
	s, _ := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.AccessSized(base-64, 8, true, false)
	if s.Stats().SubWordRMWs != 0 {
		t.Error("word-size access should not use the sub-word path")
	}
	s.AccessSized(base-56, 0, true, false) // degenerate: treated as word
	if s.Stats().MorphedStores != 2 {
		t.Error("degenerate size should still count")
	}
}

func TestInfiniteSVFSubWord(t *testing.T) {
	s := mustNew(Config{Infinite: true}, nil)
	s.NotifySPUpdate(base, base-64)
	if lat := s.AccessSized(base-64, 2, true, false); lat != s.Config().HitLatency {
		t.Error("infinite SVF partial store should be free")
	}
	if s.Stats().QuadWordsIn != 0 {
		t.Error("infinite SVF generated traffic")
	}
}

// --- Adaptive disable (§3.3) ---

func TestAdaptiveDisableEngagesOnThrashing(t *testing.T) {
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128, AdaptiveDisable: true}, l1)
	s.EnableAdaptiveDisable(64, 0.35, 256) // small epochs for the test
	s.NotifySPUpdate(base, base-64)
	// Thrash: every load hits an invalid word (never stored) at
	// rotating addresses, so every access fills.
	for i := 0; i < 200 && !s.adapt.off; i++ {
		addr := base - 64 + uint64(i%8)*isa.WordSize
		s.Access(addr, false, false)
		// Invalidate behind ourselves by faking deallocation churn.
		s.NotifySPUpdate(base-64, base)
		s.NotifySPUpdate(base, base-64)
	}
	if !s.adapt.off {
		t.Fatal("monitor never disabled a thrashing SVF")
	}
	if s.Stats().DisablePeriods != 1 {
		t.Errorf("DisablePeriods = %d", s.Stats().DisablePeriods)
	}
	// While disabled, nothing is contained: references bypass to the L1.
	if s.Contains(base - 64) {
		t.Error("disabled SVF should contain nothing")
	}
}

func TestAdaptiveDisableReenables(t *testing.T) {
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128}, l1)
	s.EnableAdaptiveDisable(16, 0.1, 32)
	s.NotifySPUpdate(base, base-64)
	for i := 0; i < 64 && !s.adapt.off; i++ {
		s.Access(base-64+uint64(i%8)*isa.WordSize, false, false)
		s.NotifySPUpdate(base-64, base)
		s.NotifySPUpdate(base, base-64)
	}
	if !s.adapt.off {
		t.Fatal("did not disable")
	}
	// The disabled period is counted in Contains probes.
	for i := 0; i < 32; i++ {
		if s.Contains(base - 64) {
			t.Fatal("contained while disabled")
		}
	}
	if s.adapt.off {
		t.Error("should have re-enabled after the period")
	}
	if !s.Contains(base - 64) {
		t.Error("re-enabled SVF should contain the window again")
	}
}

func TestAdaptiveDisableFlushesDirtyData(t *testing.T) {
	// The §3.3 disable must not lose dirty live words: they flush to the
	// L1 before references start bypassing the SVF.
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128}, l1)
	s.EnableAdaptiveDisable(8, 0.05, 64)
	s.NotifySPUpdate(base, base-64)
	// Dirty live word above the churned range so it survives until the
	// disable-time flush.
	s.Access(base-24, true, false)
	for i := 0; i < 32 && !s.adapt.off; i++ {
		s.Access(base-64+uint64(i%2)*8, false, false)
		// churn invalidation of the lower half to drive the fill rate up
		s.NotifySPUpdate(base-64, base-32)
		s.NotifySPUpdate(base-32, base-64)
	}
	if !s.adapt.off {
		t.Skip("monitor did not trip with this pattern")
	}
	if l1.writes[base-24] == 0 {
		t.Error("dirty live word not flushed at disable time")
	}
}

func TestAdaptiveStaysOffWhenHealthy(t *testing.T) {
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128}, l1)
	s.EnableAdaptiveDisable(64, 0.35, 256)
	s.NotifySPUpdate(base, base-64)
	// Healthy pattern: store then load the same slots.
	for i := 0; i < 1000; i++ {
		addr := base - 64 + uint64(i%8)*isa.WordSize
		s.Access(addr, true, false)
		s.Access(addr, false, false)
	}
	if s.adapt.off {
		t.Error("healthy access pattern should never trip the monitor")
	}
	if s.Stats().DisablePeriods != 0 {
		t.Errorf("DisablePeriods = %d", s.Stats().DisablePeriods)
	}
}
