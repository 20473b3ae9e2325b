package pipeline

import (
	"math/rand"
	"testing"

	"svf/internal/isa"
)

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 63: 64, 64: 64, 65: 128, 1000: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestStoreTabAgainstMap drives the open-addressed table and a reference
// map through the same randomized put/get/del workload. Addresses are
// drawn from a small word-aligned pool so collisions, supersession and
// delete-then-reinsert all occur.
func TestStoreTabAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := newStoreTab(8)
	ref := map[uint64]lsqRef{}
	addrOf := func() uint64 { return 0x7fff_0000 + 8*uint64(rng.Intn(64)) }
	var seq uint64
	for op := 0; op < 20000; op++ {
		addr := addrOf()
		switch rng.Intn(3) {
		case 0: // put
			// The pipeline never holds more live addresses than LSQ
			// slots; mirror that bound or the fixed-size table fills.
			if _, exists := ref[addr]; !exists && len(ref) >= 8 {
				continue
			}
			seq++
			r := lsqRef{idx: int32(rng.Intn(8)), seq: seq}
			if rng.Intn(2) == 0 {
				tab.putGet(addr, r)
			} else {
				prev, ok := tab.putGet(addr, r)
				wprev, wok := ref[addr]
				if ok != wok || (ok && prev != wprev) {
					t.Fatalf("op %d: putGet(%#x) prev = %v,%v want %v,%v", op, addr, prev, ok, wprev, wok)
				}
			}
			ref[addr] = r
		case 1: // del with the currently recorded seq, or a stale one
			r, ok := ref[addr]
			delSeq := r.seq
			if !ok || rng.Intn(4) == 0 {
				delSeq = seq + 1000 // stale/mismatched: must be a no-op
			}
			tab.del(addr, delSeq)
			if ok && delSeq == r.seq {
				delete(ref, addr)
			}
		default: // get
			got, ok := tab.get(addr)
			want, wok := ref[addr]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: get(%#x) = %v,%v want %v,%v", op, addr, got, ok, want, wok)
			}
		}
	}
	for addr, want := range ref {
		if got, ok := tab.get(addr); !ok || got != want {
			t.Fatalf("final get(%#x) = %v,%v want %v,true", addr, got, ok, want)
		}
	}
}

func newTestPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(testEnv(t, tinyMachine(), PolicyNone, 0))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEventWheelOverflow schedules a completion beyond the wheel horizon
// and checks it lands in the overflow list, is seen by nextEventCycle, and
// fires its consumer wakeup exactly at its cycle.
func TestEventWheelOverflow(t *testing.T) {
	p := newTestPipeline(t)
	p.cycle = 10
	at := p.cycle + wheelBuckets + 5

	// Entry 0 will complete at `at`; entry 1 waits on it.
	p.ruuState[0] = stIssued
	p.ruuSeq[0] = 1
	p.ruuDone[0] = at
	p.consEdges[3*1+0] = consEdge{consumer: 1, next: -1}
	p.ruuConsHead[0] = 3 * 1
	p.ruuState[1] = stDispatched
	p.ruuSeq[1] = 2
	p.ruuPending[1] = 1

	p.scheduleCompletion(0, at)
	if len(p.overflow) != 1 {
		t.Fatalf("completion %d cycles out should overflow the wheel, overflow len = %d", at-p.cycle, len(p.overflow))
	}
	if next, ok := p.nextEventCycle(); !ok || next != at {
		t.Fatalf("nextEventCycle = %d,%v want %d,true", next, ok, at)
	}

	p.cycle = at - 1
	p.tickEvents()
	if p.readyCount != 0 {
		t.Fatal("event fired one cycle early")
	}
	p.cycle = at
	p.tickEvents()
	if p.readyCount != 1 || p.readyBits[0]&2 == 0 {
		t.Fatalf("consumer not woken at its cycle: readyCount=%d bits=%#x", p.readyCount, p.readyBits[0])
	}
	if p.eventCount != 0 || len(p.overflow) != 0 {
		t.Fatalf("event not consumed: eventCount=%d overflow=%d", p.eventCount, len(p.overflow))
	}
}

func TestScheduleCompletionRejectsZeroLatency(t *testing.T) {
	p := newTestPipeline(t)
	p.cycle = 5
	defer func() {
		if recover() == nil {
			t.Fatal("scheduleCompletion(at <= cycle) should panic: same-cycle completions violate the wheel's fired-bucket invariant")
		}
	}()
	p.scheduleCompletion(0, 5)
}

// TestFastForwardIdleJump puts the machine in a state where nothing can
// happen until a scheduled completion — empty ready set, head incomplete,
// stream drained — and checks the clock jumps to the cycle before it.
func TestFastForwardIdleJump(t *testing.T) {
	p := newTestPipeline(t)
	p.cycle = 100
	p.drained = true
	p.ruuCount = 1
	p.ruuState[p.ruuHead] = stIssued
	p.ruuSeq[p.ruuHead] = 1
	p.ruuDone[p.ruuHead] = 200
	p.scheduleCompletion(int32(p.ruuHead), 200)

	p.fastForward(1000, 1_000_000)
	if p.cycle != 199 {
		t.Fatalf("cycle = %d after fastForward, want 199 (event at 200)", p.cycle)
	}
	// The next normal iteration (cycle++ then tickEvents) fires the event.
	p.cycle++
	p.tickEvents()
	if !p.slotDone(p.ruuHead) {
		t.Fatal("head entry should be complete at its scheduled cycle")
	}
}

// TestFastForwardChargesStallCounters pins the RUU-full case: dispatch is
// blocked on a full window, fetch on a full IFQ, and every skipped cycle
// must be charged to RUUFullStalls exactly as a spinning loop would.
func TestFastForwardChargesStallCounters(t *testing.T) {
	p := newTestPipeline(t)
	p.cycle = 50
	// Full RUU whose head completes far in the future.
	p.ruuCount = p.cfg.RUUSize
	for i := 0; i < p.cfg.RUUSize; i++ {
		p.ruuState[i] = stIssued
		p.ruuSeq[i] = uint64(i + 1)
		p.ruuDone[i] = 500
	}
	p.scheduleCompletion(0, 500)
	// Full IFQ with decoded entries so dispatch blocks on RUU space.
	p.ifqCount = p.cfg.IFQSize
	for i := 0; i < p.cfg.IFQSize; i++ {
		p.ifq[i] = ifqEntry{inst: isa.Inst{Kind: isa.KindALU}, fetchedAt: 1}
	}

	p.fastForward(1000, 1_000_000)
	if p.cycle != 499 {
		t.Fatalf("cycle = %d, want 499", p.cycle)
	}
	if p.stats.RUUFullStalls != 449 {
		t.Fatalf("RUUFullStalls = %d, want 449 (one per skipped cycle)", p.stats.RUUFullStalls)
	}
}

// TestIssueRingOrderAcrossWrap places ready entries across the RUU ring's
// wrap point and checks issue() selects the oldest ones when the width
// only covers half of them — i.e. selection follows program order, not
// slot order.
func TestIssueRingOrderAcrossWrap(t *testing.T) {
	p := newTestPipeline(t) // tinyMachine: Width 2, RUU 16, IntALU 4
	p.cycle = 10
	n := len(p.ruuState)
	p.ruuHead = n - 2
	p.ruuCount = 4
	slots := []int{n - 2, n - 1, 0, 1} // program order, wrapping
	for i, s := range slots {
		p.ruuState[s] = stDispatched
		p.ruuSeq[s] = uint64(i + 1)
		p.ruuInst[s] = isa.Inst{Kind: isa.KindALU}
		p.setReady(int32(s))
	}

	p.issue()

	for i, s := range slots {
		want := stDispatched
		if i < p.cfg.Width {
			want = stIssued // the two oldest, both before the wrap
		}
		if p.ruuState[s] != want {
			t.Errorf("slot %d (program position %d): state %v, want %v", s, i, p.ruuState[s], want)
		}
	}
	if p.readyCount != 2 {
		t.Errorf("readyCount = %d after issuing 2 of 4, want 2", p.readyCount)
	}
}
