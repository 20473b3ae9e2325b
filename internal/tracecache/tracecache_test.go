package tracecache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svf/internal/isa"
	"svf/internal/trace"
)

// resident reports whether a trace for fp is recorded, without touching
// recency.
func resident(c *Cache, fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fp]
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
		return c.Stream("p1", 100,
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

// mustNotRecord is a record func for a call the test expects to be served
// from a recording. It may run off the test goroutine, so it reports with
// t.Error and returns an empty trace the caller's drain then rejects.
func mustNotRecord(t *testing.T) func() []isa.Inst {
	return func() []isa.Inst { t.Error("served call ran the recorder"); return []isa.Inst{} }
}

func TestShorterBudgetReplaysPrefix(t *testing.T) {
	c := New(1 << 20)
	drain(t, c.Stream("p", 100,
		func() []isa.Inst { return fakeTrace(9, 100) },
		func() trace.Stream { return nil }), fakeTrace(9, 100))
	for _, n := range []int{40, 1, 0, 100} {
		drain(t, c.Stream("p", n, mustNotRecord(t), nil), fakeTrace(9, 100)[:n])
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 1 || st.Entries != 1 || st.UsedBytes != 100*instBytes {
		t.Errorf("stats = %+v, want 4 hits / 1 miss / one 100-inst entry", st)
	}
}

func TestLongerBudgetReplacesRecording(t *testing.T) {
	c := New(1 << 20)
	records := 0
	get := func(n int) trace.Stream {
		return c.Stream("p", n,
			func() []isa.Inst { records++; return fakeTrace(9, n) },
			func() trace.Stream { return nil })
	}
	drain(t, get(50), fakeTrace(9, 50))
	drain(t, get(100), fakeTrace(9, 100))
	if records != 2 {
		t.Fatalf("record ran %d times, want once per budget", records)
	}
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes != 100*instBytes || st.Evictions != 0 {
		t.Errorf("stats = %+v, want the 100-inst recording alone, nothing evicted", st)
	}
	// Both budgets now replay the one longer recording.
	drain(t, get(100), fakeTrace(9, 100))
	drain(t, get(50), fakeTrace(9, 50))
	if records != 2 {
		t.Errorf("record ran again after the longer recording landed")
	}
}

func TestWaiterOnCoveringFlightRecordsNothing(t *testing.T) {
	c := New(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	recorded := make(chan trace.Stream)
	go func() {
		recorded <- c.Stream("p", 100,
			func() []isa.Inst { close(started); <-release; return fakeTrace(4, 100) },
			func() trace.Stream { return nil })
	}()
	<-started
	waited := make(chan trace.Stream)
	go func() { waited <- c.Stream("p", 40, mustNotRecord(t), nil) }()
	// Give the waiter time to block on the flight. Nothing can serve it
	// before release: the recording is not resident yet, and its record
	// func fails the test.
	select {
	case <-waited:
		t.Fatal("waiter returned while the covering flight was open")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	drain(t, <-recorded, fakeTrace(4, 100))
	drain(t, <-waited, fakeTrace(4, 100)[:40])
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss (the recorder) / 1 hit (the waiter)", st)
	}
}

func TestShorterFlightNeverReplacesLonger(t *testing.T) {
	c := New(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	short := make(chan trace.Stream)
	go func() {
		short <- c.Stream("p", 50,
			func() []isa.Inst { close(started); <-release; return fakeTrace(6, 50) },
			func() trace.Stream { return nil })
	}()
	<-started
	// The open 50-inst flight cannot cover 100: this call records its own.
	drain(t, c.Stream("p", 100,
		func() []isa.Inst { return fakeTrace(6, 100) },
		func() trace.Stream { return nil }), fakeTrace(6, 100))
	close(release)
	drain(t, <-short, fakeTrace(6, 50))
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != 100*instBytes {
		t.Errorf("stats = %+v, want the 100-inst recording to stay resident", st)
	}
	drain(t, c.Stream("p", 100, mustNotRecord(t), nil), fakeTrace(6, 100))
}

// TestPrefixHitAllocatesStreamOnly pins that a prefix is served in place:
// a prefix hit allocates what an exact hit does, the stream header, and
// never copies the recording.
func TestPrefixHitAllocatesStreamOnly(t *testing.T) {
	c := New(1 << 20)
	drain(t, c.Stream("p", 1000,
		func() []isa.Inst { return fakeTrace(8, 1000) },
		func() trace.Stream { return nil }), fakeTrace(8, 1000))
	exact := testing.AllocsPerRun(100, func() { c.Stream("p", 1000, nil, nil) })
	prefix := testing.AllocsPerRun(100, func() { c.Stream("p", 10, nil, nil) })
	if exact != 1 || prefix != exact {
		t.Errorf("allocs per hit: exact %v, prefix %v; want 1 each (the stream header)", exact, prefix)
	}
}

func TestOversizeStreamsWithoutRecording(t *testing.T) {
	c := New(10 * instBytes)
	want := fakeTrace(2, 100)
	streamed := false
	s := c.Stream("big", 100,
		func() []isa.Inst { t.Fatal("oversize trace was recorded"); return nil },
		func() trace.Stream { streamed = true; return trace.NewSliceStream(fakeTrace(2, 100)) })
	drain(t, s, want)
	if !streamed {
		t.Fatal("fallback stream not used")
	}
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Errorf("oversize miss changed occupancy: %+v", st)
	}
	// A negative budget (svf.Options reaches here unchecked) streams
	// live too, even with a recording resident to slice.
	drain(t, c.Stream("small", 5, func() []isa.Inst { return fakeTrace(3, 5) }, nil), fakeTrace(3, 5))
	drain(t, c.Stream("small", -1, mustNotRecord(t), func() trace.Stream { return trace.NewSliceStream(nil) }), nil)
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(250 * instBytes) // fits two 100-inst traces, not three
	add := func(tag uint64, fp string) {
		s := c.Stream(fp, 100,
			func() []isa.Inst { return fakeTrace(tag, 100) },
			func() trace.Stream { return nil })
		drain(t, s, fakeTrace(tag, 100))
	}
	add(1, "a")
	add(2, "b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	drain(t, c.Stream("a", 100, nil, nil), fakeTrace(1, 100))
	add(3, "c")

	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction leaving 2 entries", st)
	}
	if !resident(c, "a") || !resident(c, "c") {
		t.Error("LRU evicted the wrong entry")
	}
	if resident(c, "b") {
		t.Error("victim still present")
	}
	// The evicted key transparently re-records.
	rerecorded := false
	s := c.Stream("b", 100,
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
		drain(t, c.Stream(fp, 10,
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
	drain(t, c.Stream("x", 10,
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
			s := c.Stream("p", 64,
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
	// A caller that waited on the flight and replayed it is a hit.
	if st := c.Stats(); st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, goroutines-1)
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
		c.Stream("boom", 8,
			func() []isa.Inst { panic("synthetic") },
			func() trace.Stream { return nil })
	}()
	// The flight must be gone: the next call records normally.
	drain(t, c.Stream("boom", 8,
		func() []isa.Inst { return fakeTrace(3, 8) },
		func() trace.Stream { return nil }), fakeTrace(3, 8))
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats after recovery: %+v", st)
	}
}
