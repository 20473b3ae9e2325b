package stackcache

import (
	"testing"

	"svf/internal/cache"
	"svf/internal/isa"
)

func newSC(t *testing.T, size int) (*StackCache, *cache.Memory) {
	t.Helper()
	mem := cache.NewMemory(60)
	l2, err := cache.New(cache.Config{Name: "l2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4, HitLatency: 16}, mem)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New(Config{SizeBytes: size}, l2)
	if err != nil {
		t.Fatal(err)
	}
	return sc, mem
}

const base = uint64(0x7fff_0000)

func TestDefaults(t *testing.T) {
	sc, _ := newSC(t, 8<<10)
	cfg := sc.Config()
	if cfg.LineBytes != 32 || cfg.HitLatency != 3 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if _, err := New(Config{SizeBytes: 8 << 10}, nil); err == nil {
		t.Error("nil L2 should fail")
	}
}

func TestWriteMissFetchesLine(t *testing.T) {
	// The decisive semantic difference from the SVF (§5.3.2): a write
	// miss must read the line before the write can complete.
	sc, _ := newSC(t, 2<<10)
	lat := sc.Access(base, true)
	if lat <= sc.Config().HitLatency {
		t.Errorf("write miss latency %d should include the line fill", lat)
	}
	st := sc.Stats()
	if st.BytesIn != 32 {
		t.Errorf("write miss read %d bytes, want a full 32-byte line", st.BytesIn)
	}
	if got := sc.QuadWordsIn(); got != 4 {
		t.Errorf("QuadWordsIn = %d, want 4 (one line)", got)
	}
}

func TestDirtyEvictionWritesWholeLine(t *testing.T) {
	sc, _ := newSC(t, 64) // tiny direct-mapped: 2 lines
	sc.Access(base, true)
	sc.Access(base+8, true)   // same line, still one line dirty
	sc.Access(base+64, false) // conflicting line evicts it
	if got := sc.QuadWordsOut(); got != 4 {
		t.Errorf("QuadWordsOut = %d, want 4 (whole line even though 2 words dirty)", got)
	}
}

func TestDeallocatedDataStillWrittenBack(t *testing.T) {
	// A stack cache has no liveness knowledge: dirty lines of dead
	// frames are written back anyway. (Contrast with the SVF's
	// deallocation kills.)
	sc, _ := newSC(t, 64)
	sc.Access(base-64, true) // "frame" data, then conceptually deallocated
	// ... the stack shrinks; the cache cannot know. A conflicting access
	// still forces the dead line out.
	sc.Access(base-64+64, true)
	sc.Access(base-64+128, false)
	if sc.QuadWordsOut() == 0 {
		t.Error("stack cache should write back dead dirty lines")
	}
}

func TestContextSwitch(t *testing.T) {
	sc, _ := newSC(t, 2<<10)
	sc.Access(base, true)
	sc.Access(base+32, true)
	sc.Access(base+64, false) // clean
	sc.ContextSwitch()
	if sc.ctxFlushes != 1 {
		t.Errorf("ctxFlushes = %d", sc.ctxFlushes)
	}
	if got := sc.CtxSwitchBytes(); got != 64 {
		t.Errorf("CtxSwitchBytes = %d, want 64 (two 32-byte lines)", got)
	}
	// Flush traffic is excluded from steady-state QuadWordsOut.
	if sc.QuadWordsOut() != 0 {
		t.Errorf("QuadWordsOut = %d, want 0 (flush excluded)", sc.QuadWordsOut())
	}
	if sc.CtxSwitchBytes() == 0 {
		t.Error("expected flush bytes")
	}
	// After the flush, previously resident lines miss again.
	lat := sc.Access(base, false)
	if lat <= sc.Config().HitLatency {
		t.Error("post-flush access should miss")
	}
}

func TestCtxSwitchBytesAverages(t *testing.T) {
	sc, _ := newSC(t, 2<<10)
	if sc.CtxSwitchBytes() != 0 {
		t.Error("no switches yet")
	}
	sc.Access(base, true)
	sc.ContextSwitch() // 32 bytes
	sc.ContextSwitch() // 0 bytes
	if got := sc.CtxSwitchBytes(); got != 16 {
		t.Errorf("average = %d, want 16", got)
	}
}

func TestConflictThrashing(t *testing.T) {
	// Two addresses 8KB apart in an 8KB direct-mapped cache ping-pong —
	// the mechanism behind the paper's 253.perlbmk anomaly.
	sc, _ := newSC(t, 8<<10)
	a, b := base, base+8<<10
	sc.Access(a, true)
	missesBefore := sc.Stats().Misses
	for i := 0; i < 10; i++ {
		sc.Access(b, true)
		sc.Access(a, true)
	}
	if got := sc.Stats().Misses - missesBefore; got != 20 {
		t.Errorf("aliasing accesses produced %d misses, want 20 (every access)", got)
	}
	if sc.QuadWordsOut() < 19*uint64(32)/isa.WordSize {
		t.Errorf("ping-pong should write back dirty lines every time, got %d QW", sc.QuadWordsOut())
	}
}
