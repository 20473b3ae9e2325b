package rse

import (
	"testing"

	"svf/internal/isa"
)

// recordingLevel records backing-store traffic.
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

func newRSE(t *testing.T, regs int) (*RSE, *recordingLevel) {
	t.Helper()
	l1 := newRecording()
	r, err := New(Config{Regs: regs}, l1)
	if err != nil {
		t.Fatal(err)
	}
	r.NotifySPUpdate(base, base)
	return r, l1
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Regs: 4}, newRecording()); err == nil {
		t.Error("too few registers should fail")
	}
	if _, err := New(Config{Regs: 64}, nil); err == nil {
		t.Error("nil backing store should fail")
	}
	r, err := New(Config{Regs: 64}, newRecording())
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.HitLatency != 1 {
		t.Error("default hit latency not filled")
	}
}

func TestFramePushPopNoTraffic(t *testing.T) {
	// Calls and returns that fit the register stack move no data — the
	// whole point of register windows.
	r, l1 := newRSE(t, 64)
	sp := base
	for depth := 0; depth < 4; depth++ {
		r.NotifySPUpdate(sp, sp-64)
		sp -= 64
	}
	for depth := 0; depth < 4; depth++ {
		r.NotifySPUpdate(sp, sp+64)
		sp += 64
	}
	if len(l1.reads)+len(l1.writes) != 0 {
		t.Errorf("in-capacity call/return generated traffic: %d reads %d writes", len(l1.reads), len(l1.writes))
	}
	st := r.Stats()
	if st.Overflows != 0 || st.Underflows != 0 {
		t.Errorf("spurious overflow/underflow: %+v", st)
	}
}

func TestResidentAccess(t *testing.T) {
	r, _ := newRSE(t, 64)
	r.NotifySPUpdate(base, base-64) // 8-word frame
	lat, ok := r.Access(base-64, true)
	if !ok || lat != 1 {
		t.Errorf("resident access: ok=%v lat=%d", ok, lat)
	}
	if _, ok := r.Access(base+512, false); ok {
		t.Error("access outside any frame should miss")
	}
	st := r.Stats()
	if st.RegRefs != 1 || st.MemRefs != 1 {
		t.Errorf("counters: %+v", st)
	}
}

func TestOverflowSpillsWholeOldFrame(t *testing.T) {
	r, l1 := newRSE(t, 16) // 16 registers
	sp := base
	// Frame A: 8 words; frame B: 8 words (fits exactly); frame C: 8 words
	// forces A out.
	for i := 0; i < 3; i++ {
		r.NotifySPUpdate(sp, sp-64)
		sp -= 64
	}
	st := r.Stats()
	if st.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", st.Overflows)
	}
	// The *whole* oldest frame spilled — 8 words, clean or not.
	if st.QuadWordsOut != 8 {
		t.Errorf("QuadWordsOut = %d, want 8 (whole frame)", st.QuadWordsOut)
	}
	for w := uint64(0); w < 8; w++ {
		if l1.writes[base-64+w*isa.WordSize] != 1 {
			t.Errorf("frame A word %d not spilled", w)
		}
	}
	// Frame A's addresses are no longer resident.
	if r.Resident(base - 64) {
		t.Error("spilled frame still resident")
	}
	if !r.Resident(sp) {
		t.Error("current frame must be resident")
	}
}

func TestUnderflowRefillsWholeFrame(t *testing.T) {
	r, l1 := newRSE(t, 16)
	sp := base
	for i := 0; i < 3; i++ {
		r.NotifySPUpdate(sp, sp-64)
		sp -= 64
	}
	// Return twice: popping C frees registers; popping B returns to A,
	// which was spilled — underflow refills all 8 of its words.
	r.NotifySPUpdate(sp, sp+64)
	sp += 64
	r.NotifySPUpdate(sp, sp+64)
	sp += 64
	st := r.Stats()
	if st.Underflows != 1 {
		t.Fatalf("Underflows = %d, want 1", st.Underflows)
	}
	if st.QuadWordsIn != 8 {
		t.Errorf("QuadWordsIn = %d, want 8 (whole frame, referenced or not)", st.QuadWordsIn)
	}
	if len(l1.reads) != 8 {
		t.Errorf("backing store saw %d reads", len(l1.reads))
	}
	if !r.Resident(base - 64) {
		t.Error("refilled frame should be resident")
	}
}

func TestReturnDiscardsWithoutWriteback(t *testing.T) {
	// Like the SVF's deallocation kill: returning frees the frame's
	// registers with no writeback.
	r, l1 := newRSE(t, 64)
	r.NotifySPUpdate(base, base-64)
	r.Access(base-64, true) // "dirty" register
	r.NotifySPUpdate(base-64, base)
	if len(l1.writes) != 0 {
		t.Errorf("return wrote back: %v", l1.writes)
	}
	if r.residentWords != 0 {
		t.Errorf("ResidentWords = %d after full pop", r.residentWords)
	}
}

func TestContextSwitchSpillsEverythingResident(t *testing.T) {
	// Architectural state: ALL resident allocated registers spill, clean
	// or dirty — the §6 contrast with the SVF's per-word dirty flush.
	r, l1 := newRSE(t, 64)
	sp := base
	r.NotifySPUpdate(sp, sp-64) // 8 words
	sp -= 64
	r.NotifySPUpdate(sp, sp-32) // 4 words
	sp -= 32
	r.ContextSwitch()
	st := r.Stats()
	if st.CtxBytes != 12*isa.WordSize {
		t.Errorf("CtxBytes = %d, want 96 (all 12 allocated registers)", st.CtxBytes)
	}
	if len(l1.writes) != 12 {
		t.Errorf("flush wrote %d registers, want 12", len(l1.writes))
	}
	// The engine refills the current frame to resume.
	if !r.Resident(sp) {
		t.Error("current frame must be refilled after the switch")
	}
	if r.CtxSwitchBytes() != 96 {
		t.Errorf("CtxSwitchBytes = %d", r.CtxSwitchBytes())
	}
}

func TestOversizeFrameServedFromMemory(t *testing.T) {
	// A single allocation larger than the whole register stack cannot be
	// register-resident; its references fall back to memory.
	r, _ := newRSE(t, 16)
	r.NotifySPUpdate(base, base-16*16) // 32 words > 16 regs
	if _, ok := r.Access(base-16*16, false); ok {
		t.Error("oversize frame should not be register-resident")
	}
}

func TestPartialDeallocation(t *testing.T) {
	r, _ := newRSE(t, 64)
	r.NotifySPUpdate(base, base-64) // 8 words
	// Shrink by half the frame (alloca-style adjustment).
	r.NotifySPUpdate(base-64, base-32)
	if r.residentWords != 4 {
		t.Errorf("ResidentWords = %d, want 4 after partial pop", r.residentWords)
	}
	if !r.Resident(base - 32) {
		t.Error("kept half should stay resident")
	}
	if r.Resident(base - 64) {
		t.Error("freed half should be gone")
	}
}

func TestPenaltyAccounting(t *testing.T) {
	r, _ := newRSE(t, 16)
	sp := base
	for i := 0; i < 3; i++ {
		r.NotifySPUpdate(sp, sp-64)
		sp -= 64
	}
	if p := r.TakePenalty(); p == 0 {
		t.Error("overflow should accrue a penalty")
	}
	if p := r.TakePenalty(); p != 0 {
		t.Errorf("penalty not cleared: %d", p)
	}
}

func TestSPMismatchReturnsError(t *testing.T) {
	r, _ := newRSE(t, 64)
	if err := r.NotifySPUpdate(base, base); err != nil {
		t.Fatalf("anchoring update: %v", err)
	}
	if err := r.NotifySPUpdate(base-8, base-16); err == nil {
		t.Error("inconsistent SP should return an error, not panic")
	}
	// The engine stays usable: a consistent update still applies.
	if err := r.NotifySPUpdate(base, base-64); err != nil {
		t.Errorf("consistent update after rejected one: %v", err)
	}
}

func TestContextSwitchChargesFlushPenalty(t *testing.T) {
	// The flush moves registers at spill bandwidth (2 per cycle), so it
	// must accrue a front-end penalty like any other overflow — an
	// uncharged flush makes context switches free for the RSE while the
	// SVF pays for its dirty words.
	r, _ := newRSE(t, 64)
	r.NotifySPUpdate(base, base-64) // 8 words
	if p := r.TakePenalty(); p != 0 {
		t.Fatalf("in-capacity push accrued penalty %d", p)
	}
	r.ContextSwitch()
	// 8 registers out at 2/cycle = 4, plus the resume underflow refilling
	// the same 8 registers = 4 more.
	if p := r.TakePenalty(); p != 8 {
		t.Errorf("context-switch penalty = %d, want 8 (4 flush + 4 refill)", p)
	}
}

func TestRepeatedContextSwitchCtxBytesExact(t *testing.T) {
	// Each switch flushes exactly the registers resident at that moment:
	// after the first switch only the refilled top frame is resident, so
	// the second flush is smaller. CtxBytes must track both exactly.
	r, _ := newRSE(t, 64)
	sp := base
	r.NotifySPUpdate(sp, sp-64) // 8 words
	sp -= 64
	r.NotifySPUpdate(sp, sp-32) // 4 words
	sp -= 32
	r.ContextSwitch() // flushes 12 words, refills the 4-word top
	r.ContextSwitch() // flushes just the 4-word top
	st := r.Stats()
	if st.CtxSwitches != 2 {
		t.Fatalf("CtxSwitches = %d", st.CtxSwitches)
	}
	if want := uint64((12 + 4) * isa.WordSize); st.CtxBytes != want {
		t.Errorf("CtxBytes = %d, want %d", st.CtxBytes, want)
	}
	if r.residentWords != 4 {
		t.Errorf("ResidentWords = %d after second switch, want 4", r.residentWords)
	}
}

func TestPopNeverRefillsOversizeFrame(t *testing.T) {
	// Returning to a frame that alone exceeds the register stack must NOT
	// refill it: it can never be resident, and refilling would pin
	// residentWords above Regs forever. Its references stay memory-served,
	// mirroring the oversized-push case.
	r, _ := newRSE(t, 16)
	sp := base
	r.NotifySPUpdate(sp, sp-64) // A: 8 words
	sp -= 64
	r.NotifySPUpdate(sp, sp-32*isa.WordSize) // B: 32 words > 16 regs
	sp -= 32 * isa.WordSize
	r.NotifySPUpdate(sp, sp-64) // C: 8 words
	sp -= 64
	r.NotifySPUpdate(sp, sp+64) // pop C: returns to oversized B
	sp += 64
	if r.Resident(sp) {
		t.Error("oversized frame became resident via pop refill")
	}
	if rw := r.residentWords; rw > 16 {
		t.Errorf("ResidentWords = %d exceeds capacity 16", rw)
	}
	st := r.Stats()
	if _, ok := r.Access(sp, false); ok {
		t.Error("oversized frame access should fall back to memory")
	}
	// Popping B returns to A, a normal-sized frame: that one refills.
	r.NotifySPUpdate(sp, sp+32*isa.WordSize)
	sp += 32 * isa.WordSize
	if !r.Resident(sp) {
		t.Error("normal frame not refilled after oversized interlude")
	}
	if got := r.Stats().Underflows - st.Underflows; got != 1 {
		t.Errorf("underflows for the A refill = %d, want 1", got)
	}
	if rw := r.residentWords; rw != 8 {
		t.Errorf("ResidentWords = %d, want 8", rw)
	}
}

func TestContextSwitchKeepsCapacityInvariant(t *testing.T) {
	// A deep stack flushed and resumed must come back under capacity:
	// the resume refill may itself evict older frames, never exceed Regs.
	r, _ := newRSE(t, 16)
	sp := base
	for i := 0; i < 3; i++ { // 3 × 8 words; A spills on the third push
		r.NotifySPUpdate(sp, sp-64)
		sp -= 64
	}
	for i := 0; i < 4; i++ {
		r.ContextSwitch()
		if rw := r.residentWords; rw > 16 {
			t.Fatalf("switch %d: ResidentWords = %d exceeds capacity", i, rw)
		}
		if !r.Resident(sp) {
			t.Fatalf("switch %d: current frame not refilled", i)
		}
	}
}
