package tracecache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"svf/internal/isa"
	"svf/internal/trace"
)

// resident reports whether a trace for key is recorded, without touching
// recency.
func resident(c *Cache, key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// fakeTrace builds a recognisable n-instruction trace seeded by tag.
func fakeTrace(tag uint64, n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{PC: tag<<32 | uint64(i), Kind: isa.KindALU}
	}
	return out
}

// drain collects a stream, failing the test if it does not match want.
func drain(t *testing.T, s trace.Stream, want []isa.Inst) {
	t.Helper()
	var in isa.Inst
	for i := range want {
		if !s.Next(&in) {
			t.Fatalf("stream ended at %d, want %d insts", i, len(want))
		}
		if in != want[i] {
			t.Fatalf("inst %d = %+v, want %+v", i, in, want[i])
		}
	}
	if s.Next(&in) {
		t.Fatal("stream yielded more instructions than recorded")
	}
}

func TestRecordOnceReplayMany(t *testing.T) {
	c := New(1 << 20)
	want := fakeTrace(1, 100)
	records := 0
	get := func() trace.Stream {
		return c.Stream(Key{FP: "p1", N: 100},
			func() []isa.Inst { records++; return fakeTrace(1, 100) },
			func() trace.Stream { t.Fatal("budgeted miss used the live generator"); return nil })
	}
	for i := 0; i < 3; i++ {
		drain(t, get(), want)
	}
	if records != 1 {
		t.Errorf("record ran %d times, want 1", records)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	if st.UsedBytes != 100*instBytes {
		t.Errorf("UsedBytes = %d, want %d", st.UsedBytes, 100*instBytes)
	}
}

func TestDistinctBudgetsKeySeparately(t *testing.T) {
	c := New(1 << 20)
	for _, n := range []int{50, 100} {
		n := n
		s := c.Stream(Key{FP: "p", N: n},
			func() []isa.Inst { return fakeTrace(9, n) },
			func() trace.Stream { return nil })
		drain(t, s, fakeTrace(9, n))
	}
	if st := c.Stats(); st.Entries != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 entries, 0 hits", st)
	}
}

func TestOversizeStreamsWithoutRecording(t *testing.T) {
	c := New(10 * instBytes)
	want := fakeTrace(2, 100)
	streamed := false
	s := c.Stream(Key{FP: "big", N: 100},
		func() []isa.Inst { t.Fatal("oversize trace was recorded"); return nil },
		func() trace.Stream { streamed = true; return trace.NewSliceStream(fakeTrace(2, 100)) })
	drain(t, s, want)
	if !streamed {
		t.Fatal("fallback stream not used")
	}
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Errorf("oversize miss changed occupancy: %+v", st)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(250 * instBytes) // fits two 100-inst traces, not three
	add := func(tag uint64, fp string) {
		s := c.Stream(Key{FP: fp, N: 100},
			func() []isa.Inst { return fakeTrace(tag, 100) },
			func() trace.Stream { return nil })
		drain(t, s, fakeTrace(tag, 100))
	}
	add(1, "a")
	add(2, "b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	drain(t, c.Stream(Key{FP: "a", N: 100}, nil, nil), fakeTrace(1, 100))
	add(3, "c")

	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction leaving 2 entries", st)
	}
	if !resident(c, Key{FP: "a", N: 100}) || !resident(c, Key{FP: "c", N: 100}) {
		t.Error("LRU evicted the wrong entry")
	}
	if resident(c, Key{FP: "b", N: 100}) {
		t.Error("victim still present")
	}
	// The evicted key transparently re-records.
	rerecorded := false
	s := c.Stream(Key{FP: "b", N: 100},
		func() []isa.Inst { rerecorded = true; return fakeTrace(2, 100) },
		func() trace.Stream { return nil })
	drain(t, s, fakeTrace(2, 100))
	if !rerecorded {
		t.Error("evicted trace was not re-recorded")
	}
}

func TestSetBudgetShrinkEvicts(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 4; i++ {
		tag, fp := uint64(i), fmt.Sprint(i)
		drain(t, c.Stream(Key{FP: fp, N: 10},
			func() []isa.Inst { return fakeTrace(tag, 10) },
			func() trace.Stream { return nil }), fakeTrace(tag, 10))
	}
	c.SetBudget(15 * instBytes) // room for one 10-inst trace
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != 10*instBytes {
		t.Errorf("after shrink: %+v, want 1 entry", st)
	}
	c.SetBudget(0)
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("zero budget retained entries: %+v", st)
	}
	// Disabled cache streams straight through.
	used := false
	drain(t, c.Stream(Key{FP: "x", N: 10},
		func() []isa.Inst { t.Fatal("recorded while disabled"); return nil },
		func() trace.Stream { used = true; return trace.NewSliceStream(fakeTrace(7, 10)) }),
		fakeTrace(7, 10))
	if !used {
		t.Error("fallback not used while disabled")
	}
}

func TestSingleFlightConcurrentMisses(t *testing.T) {
	c := New(1 << 20)
	var records atomic.Int32
	release := make(chan struct{})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.Stream(Key{FP: "p", N: 64},
				func() []isa.Inst {
					records.Add(1)
					<-release // hold the flight open so others pile up
					return fakeTrace(5, 64)
				},
				func() trace.Stream { return trace.NewSliceStream(fakeTrace(5, 64)) })
			var in isa.Inst
			n := 0
			for s.Next(&in) {
				n++
			}
			if n != 64 {
				t.Errorf("stream yielded %d insts, want 64", n)
			}
		}()
	}
	// Let the recorder start and the rest reach the wait, then release.
	for records.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if r := records.Load(); r != 1 {
		t.Errorf("record ran %d times under concurrent misses, want 1", r)
	}
}

func TestPanickingRecorderReleasesWaiters(t *testing.T) {
	c := New(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("record panic did not propagate")
			}
		}()
		c.Stream(Key{FP: "boom", N: 8},
			func() []isa.Inst { panic("synthetic") },
			func() trace.Stream { return nil })
	}()
	// The flight must be gone: the next call records normally.
	drain(t, c.Stream(Key{FP: "boom", N: 8},
		func() []isa.Inst { return fakeTrace(3, 8) },
		func() trace.Stream { return nil }), fakeTrace(3, 8))
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats after recovery: %+v", st)
	}
}
