package core

import (
	"math/rand/v2"
	"testing"

	"svf/internal/cache"
	"svf/internal/isa"
)

// recordingLevel is a fake L1 that records every spill/fill the SVF makes.
type recordingLevel struct {
	reads, writes map[uint64]int
}

func newRecording() *recordingLevel {
	return &recordingLevel{reads: map[uint64]int{}, writes: map[uint64]int{}}
}

func (r *recordingLevel) Access(addr uint64, write bool) int {
	if write {
		r.writes[addr]++
	} else {
		r.reads[addr]++
	}
	return 3
}

const base = uint64(0x7fff_0000)

// mustNew is New for the tests' valid static configurations.
func mustNew(cfg Config, l1 cache.Level) *SVF {
	s, err := New(cfg, l1)
	if err != nil {
		panic(err)
	}
	return s
}

// entryState reports the valid and dirty bits of the entry addr currently
// maps to.
func entryState(s *SVF, addr uint64) (valid, dirty bool) {
	i := s.index(addr)
	return s.valid[i], s.dirty[i]
}

func newSVF(t *testing.T, size int) (*SVF, *recordingLevel) {
	t.Helper()
	l1 := newRecording()
	s, err := New(Config{SizeBytes: size}, l1)
	if err != nil {
		t.Fatal(err)
	}
	s.NotifySPUpdate(base, base) // anchor
	return s, l1
}

func TestNewValidation(t *testing.T) {
	l1 := newRecording()
	if _, err := New(Config{SizeBytes: 0}, l1); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := New(Config{SizeBytes: 12}, l1); err == nil {
		t.Error("non-multiple-of-8 size should fail")
	}
	if _, err := New(Config{SizeBytes: 24}, l1); err == nil {
		t.Error("non-power-of-two entries should fail")
	}
	if _, err := New(Config{SizeBytes: 64}, nil); err == nil {
		t.Error("nil L1 should fail")
	}
	if _, err := New(Config{Infinite: true}, nil); err != nil {
		t.Errorf("infinite SVF needs no L1: %v", err)
	}
	s := mustNew(Config{SizeBytes: 8 << 10}, l1)
	if s.Entries() != 1024 {
		t.Errorf("8KB SVF should have 1024 entries, got %d", s.Entries())
	}
	if s.Config().HitLatency != 1 || s.Config().RerouteLatency != 2 {
		t.Errorf("defaults not filled: %+v", s.Config())
	}
}

func TestContainsWindow(t *testing.T) {
	s, _ := newSVF(t, 128) // 16 entries
	if !s.Contains(base) {
		t.Error("TOS should be in window")
	}
	if !s.Contains(base + 127) {
		t.Error("last window byte should be in window")
	}
	if s.Contains(base + 128) {
		t.Error("one past window should be out")
	}
	if s.Contains(base - 8) {
		t.Error("below TOS should be out")
	}
}

func TestAllocationKillsNoFetch(t *testing.T) {
	s, l1 := newSVF(t, 128)
	// Grow the stack: newly allocated words are dead — no fill traffic.
	s.NotifySPUpdate(base, base-64)
	if len(l1.reads) != 0 {
		t.Errorf("allocation caused %d fills", len(l1.reads))
	}
	// First access is a store: still no fill.
	s.Access(base-64, true, false)
	if len(l1.reads) != 0 {
		t.Error("store to new frame caused a fill")
	}
	// Loading it back now hits (valid).
	lat := s.Access(base-64, false, false)
	if lat != s.Config().HitLatency {
		t.Errorf("load after store latency %d, want %d", lat, s.Config().HitLatency)
	}
	if got := s.Stats().QuadWordsIn; got != 0 {
		t.Errorf("QuadWordsIn = %d, want 0", got)
	}
}

func TestLoadOfUnwrittenWordFills(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	lat := s.Access(base-32, false, false)
	if lat <= s.Config().HitLatency {
		t.Errorf("fill latency %d should exceed hit latency", lat)
	}
	if l1.reads[base-32] != 1 {
		t.Error("demand fill should read the word from L1")
	}
	if s.Stats().QuadWordsIn != 1 || s.Stats().Fills != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// Second load hits without traffic.
	s.Access(base-32, false, false)
	if s.Stats().QuadWordsIn != 1 {
		t.Error("second load should not fill again")
	}
}

func TestDeallocationKillsDirtyData(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false) // dirty word at TOS
	s.Access(base-56, true, false)
	// Shrink past them: semantically dead — no writeback.
	s.NotifySPUpdate(base-64, base)
	if len(l1.writes) != 0 {
		t.Errorf("deallocation wrote back dead data: %v", l1.writes)
	}
	st := s.Stats()
	if st.DeallocKills != 2 {
		t.Errorf("DeallocKills = %d, want 2", st.DeallocKills)
	}
	if st.QuadWordsOut != 0 {
		t.Errorf("QuadWordsOut = %d, want 0", st.QuadWordsOut)
	}
}

func TestWindowSlideSpillsLiveDirtyWords(t *testing.T) {
	s, l1 := newSVF(t, 128) // window [sp, sp+128)
	// Allocate 64 bytes and dirty the deepest word of the window.
	s.NotifySPUpdate(base, base-64)
	deep := base + 56 // near the far end of the window [base-64, base+64)
	s.Access(deep, true, true)
	// Grow by another 64: [base+0 .. base+64) leaves the window; the
	// dirty word at base+56 is live (still allocated) and must spill.
	s.NotifySPUpdate(base-64, base-128)
	if l1.writes[deep] != 1 {
		t.Errorf("live dirty word not spilled: writes=%v", l1.writes)
	}
	if s.Stats().QuadWordsOut != 1 || s.Stats().Spills != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// The reused slot must be invalid (fresh allocation).
	if v, _ := entryState(s, base-128+(deep-(base-64))); v {
		t.Error("slot reused by new allocation should be invalid")
	}
}

func TestFullWindowSlide(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-8, true, false)
	// Slide by 2x the window: everything live and dirty spills.
	s.NotifySPUpdate(base-64, base-64-256)
	if len(l1.writes) != 2 {
		t.Errorf("full slide should spill both dirty words, wrote %v", l1.writes)
	}
	// Everything invalid afterwards.
	for a := base - 64 - 256; a < base-256; a += 8 {
		if v, _ := entryState(s, a); v {
			t.Errorf("entry %#x valid after full slide", a)
		}
	}
}

func TestFullDeallocation(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	// Shrink by more than the window: dead data killed, no writes.
	s.NotifySPUpdate(base-64, base+192)
	if len(l1.writes) != 0 {
		t.Error("full deallocation should not write back")
	}
	if s.Stats().DeallocKills != 1 {
		t.Errorf("DeallocKills = %d, want 1", s.Stats().DeallocKills)
	}
}

func TestReroutedCountersAndLatency(t *testing.T) {
	s, _ := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	latMorph := s.Access(base-64, false, false)
	latReroute := s.Access(base-64, false, true)
	if latReroute != latMorph+s.Config().RerouteLatency {
		t.Errorf("reroute latency %d, want %d", latReroute, latMorph+s.Config().RerouteLatency)
	}
	s.Access(base-56, true, true)
	st := s.Stats()
	if st.MorphedStores != 1 || st.MorphedLoads != 1 || st.ReroutedLoads != 1 || st.ReroutedStores != 1 {
		t.Errorf("counters = %+v", st)
	}
	if st.MorphedRefs() != 2 || st.ReroutedRefs() != 2 {
		t.Errorf("aggregates wrong: %+v", st)
	}
}

func TestContextSwitchFlush(t *testing.T) {
	s, l1 := newSVF(t, 128)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-48, true, false)
	s.Access(base-40, false, false) // fill → valid but clean
	qwOutBefore := s.Stats().QuadWordsOut
	s.ContextSwitch()
	st := s.Stats()
	if st.CtxSwitches != 1 {
		t.Errorf("CtxSwitches = %d", st.CtxSwitches)
	}
	// Only the two dirty words flush, at per-word granularity.
	if st.CtxBytes != 16 {
		t.Errorf("CtxBytes = %d, want 16", st.CtxBytes)
	}
	if l1.writes[base-64] != 1 || l1.writes[base-48] != 1 {
		t.Errorf("dirty words not flushed: %v", l1.writes)
	}
	if len(l1.writes) != 2 {
		t.Errorf("clean words should not flush: %v", l1.writes)
	}
	// Flush traffic is not Table 3 steady-state traffic.
	if st.QuadWordsOut != qwOutBefore {
		t.Error("context switch polluted QuadWordsOut")
	}
	// Everything invalid: next load fills.
	s.Access(base-64, false, false)
	if s.Stats().Fills == 0 {
		t.Error("post-flush load should fill")
	}
	if got := s.CtxSwitchBytes(); got != 16 {
		t.Errorf("CtxSwitchBytes = %d, want 16", got)
	}
}

func TestCtxSwitchBytesZeroWhenNone(t *testing.T) {
	s, _ := newSVF(t, 128)
	if s.CtxSwitchBytes() != 0 {
		t.Error("no context switches yet")
	}
}

func TestInfiniteSVF(t *testing.T) {
	s := mustNew(Config{Infinite: true}, nil)
	s.NotifySPUpdate(base, base-1<<20)
	if !s.Contains(0x1234) {
		t.Error("infinite SVF contains everything")
	}
	if lat := s.Access(base-512, false, false); lat != s.Config().HitLatency {
		t.Errorf("infinite SVF load latency %d", lat)
	}
	s.ContextSwitch()
	st := s.Stats()
	if st.QuadWordsIn != 0 || st.QuadWordsOut != 0 || st.CtxBytes != 0 {
		t.Errorf("infinite SVF generated traffic: %+v", st)
	}
}

func TestSPMismatchPanics(t *testing.T) {
	s, _ := newSVF(t, 128)
	defer func() {
		if recover() == nil {
			t.Error("inconsistent SP update should panic")
		}
	}()
	s.NotifySPUpdate(base-8, base-16) // SVF believes sp == base
}

// TestNoDirtyLiveDataLost is the central safety property: across random
// operation sequences, any word written while in the window is either
// (a) still valid+dirty in the SVF, (b) was spilled to the L1, or (c) was
// deallocated (sp rose above it). A violation would be silent memory
// corruption in a real implementation.
func TestNoDirtyLiveDataLost(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x1234))
		l1 := newRecording()
		s := mustNew(Config{SizeBytes: 256}, l1) // 32 entries
		sp := base
		s.NotifySPUpdate(sp, sp)
		// dirtyLive tracks words written and not yet deallocated/spilled.
		dirtyLive := map[uint64]bool{}
		winBytes := uint64(s.Entries()) * isa.WordSize

		checkInvariant := func(step int) {
			for addr := range dirtyLive {
				if addr < sp || addr >= sp+winBytes {
					// Outside the window: must have been spilled (it
					// is still live — below deallocation point).
					if l1.writes[addr] == 0 {
						t.Fatalf("seed %d step %d: dirty live word %#x left window without spill", seed, step, addr)
					}
					delete(dirtyLive, addr)
					continue
				}
				v, d := entryState(s, addr)
				if v && d {
					continue
				}
				// The slot may have been reused after a spill.
				if l1.writes[addr] == 0 {
					t.Fatalf("seed %d step %d: dirty live word %#x lost (valid=%v dirty=%v, never spilled)", seed, step, addr, v, d)
				}
				delete(dirtyLive, addr)
			}
		}

		for step := 0; step < 3000; step++ {
			switch rng.IntN(10) {
			case 0, 1, 2: // grow stack
				delta := uint64(rng.IntN(24)+1) * isa.WordSize
				if sp-delta < base-1<<20 {
					continue
				}
				s.NotifySPUpdate(sp, sp-delta)
				sp -= delta
			case 3, 4: // shrink stack
				if sp >= base {
					continue
				}
				maxUp := (base - sp) / isa.WordSize
				delta := uint64(rng.IntN(int(min(maxUp, 24)))+1) * isa.WordSize
				// Everything in [sp, sp+delta) dies.
				for a := sp; a < sp+delta; a += isa.WordSize {
					delete(dirtyLive, a)
				}
				s.NotifySPUpdate(sp, sp+delta)
				sp += delta
			case 5, 6, 7: // store
				if sp >= base {
					continue
				}
				off := uint64(rng.IntN(int(min((base-sp)/isa.WordSize, uint64(s.Entries())))))
				addr := sp + off*isa.WordSize
				s.Access(addr, true, rng.IntN(4) == 0)
				dirtyLive[addr] = true
			default: // load
				if sp >= base {
					continue
				}
				off := uint64(rng.IntN(int(min((base-sp)/isa.WordSize, uint64(s.Entries())))))
				addr := sp + off*isa.WordSize
				wasDirty := dirtyLive[addr]
				fillsBefore := s.Stats().Fills
				s.Access(addr, false, rng.IntN(4) == 0)
				if wasDirty && s.Stats().Fills != fillsBefore && l1.writes[addr] == 0 {
					t.Fatalf("seed %d step %d: load of dirty live %#x caused a fill without prior spill", seed, step, addr)
				}
			}
			checkInvariant(step)
		}
	}
}

// TestTrafficAccounting checks that the traffic counters agree with the
// recorded L1 operations.
func TestTrafficAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 7))
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128}, l1)
	sp := base
	s.NotifySPUpdate(sp, sp)
	for i := 0; i < 5000; i++ {
		switch rng.IntN(6) {
		case 0:
			d := uint64(rng.IntN(10)+1) * isa.WordSize
			s.NotifySPUpdate(sp, sp-d)
			sp -= d
		case 1:
			if sp < base {
				d := min((base-sp)/isa.WordSize, uint64(rng.IntN(10)+1)) * isa.WordSize
				s.NotifySPUpdate(sp, sp+d)
				sp += d
			}
		default:
			if sp < base {
				off := uint64(rng.IntN(16))
				s.Access(sp+off*isa.WordSize, rng.IntN(2) == 0, false)
			}
		}
	}
	var totalWrites, totalReads int
	for _, n := range l1.writes {
		totalWrites += n
	}
	for _, n := range l1.reads {
		totalReads += n
	}
	st := s.Stats()
	if uint64(totalWrites) != st.QuadWordsOut {
		t.Errorf("L1 writes %d != QuadWordsOut %d", totalWrites, st.QuadWordsOut)
	}
	if uint64(totalReads) != st.QuadWordsIn {
		t.Errorf("L1 reads %d != QuadWordsIn %d", totalReads, st.QuadWordsIn)
	}
	if st.Spills != st.QuadWordsOut {
		t.Errorf("Spills %d != QuadWordsOut %d", st.Spills, st.QuadWordsOut)
	}
	if st.Fills != st.QuadWordsIn {
		t.Errorf("Fills %d != QuadWordsIn %d", st.Fills, st.QuadWordsIn)
	}
}

func TestDisableKillsWritesBackDeadData(t *testing.T) {
	// Ablation semantics: without liveness knowledge, deallocated dirty
	// words are written back (like a cache) and first stores fetch.
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128, DisableKills: true}, l1)
	s.NotifySPUpdate(base, base)
	s.NotifySPUpdate(base, base-64)
	// First store must fetch the word (no allocation kill).
	s.Access(base-64, true, false)
	if l1.reads[base-64] != 1 {
		t.Error("DisableKills store should write-allocate fetch")
	}
	// Deallocation must write the dirty word back (no deallocation kill).
	s.NotifySPUpdate(base-64, base)
	if l1.writes[base-64] != 1 {
		t.Error("DisableKills deallocation should write back dirty data")
	}
	if s.Stats().DeallocKills != 0 {
		t.Error("kills counted while disabled")
	}
}

func TestDisableKillsFullWindowShrink(t *testing.T) {
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 128, DisableKills: true}, l1)
	s.NotifySPUpdate(base, base)
	s.NotifySPUpdate(base, base-64)
	s.Access(base-64, true, false)
	s.Access(base-8, true, false)
	// Shrink past the whole window: both dirty words spill.
	s.NotifySPUpdate(base-64, base+256)
	if len(l1.writes) != 2 {
		t.Errorf("full-window shrink wrote %d words, want 2", len(l1.writes))
	}
}

func TestBankMapping(t *testing.T) {
	l1 := newRecording()
	s := mustNew(Config{SizeBytes: 256, Banks: 4}, l1)
	if s.Bank(base) == s.Bank(base+8) {
		t.Error("adjacent words should interleave across banks")
	}
	if s.Bank(base) != s.Bank(base+32) {
		t.Error("bank stride should be banks*8 bytes")
	}
	flat := mustNew(Config{SizeBytes: 256}, l1)
	if flat.Bank(base) != 0 || flat.Bank(base+8) != 0 {
		t.Error("unbanked SVF maps everything to bank 0")
	}
	if _, err := New(Config{SizeBytes: 256, Banks: 3}, l1); err == nil {
		t.Error("non-power-of-two banks should fail")
	}
}
