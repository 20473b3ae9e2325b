package tracecache

import (
	"context"
	"errors"
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

// fakeRec records fakeTrace(tag, n).
func fakeRec(tag uint64, n int) *trace.Recording {
	// Background is never done, so Record cannot fail.
	rec, _ := trace.Record(context.Background(), trace.NewSliceStream(fakeTrace(tag, n)), n, trace.MaxShapes)
	return rec
}

// stream is c.Stream for a record func that cannot be cancelled.
func stream(c *Cache, fp string, n int, record func(int) *trace.Recording, live func() trace.Stream) trace.Stream {
	s, err := c.Stream(fp, n, func(maxShapes int) (*trace.Recording, error) { return record(maxShapes), nil }, live)
	if err != nil {
		panic(err)
	}
	return s
}

// bytesOf is the charge for recording an n-instruction fakeTrace: every
// instruction is a shape of its own.
func bytesOf(n int) int64 { return fakeRec(0, n).Bytes() }

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
		return stream(c, "p1", 100,
			func(int) *trace.Recording { records++; return fakeRec(1, 100) },
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
	if st.UsedBytes != bytesOf(100) {
		t.Errorf("UsedBytes = %d, want %d", st.UsedBytes, bytesOf(100))
	}
}

// mustNotRecord is a record func for a call the test expects to be served
// from a recording. It may run off the test goroutine, so it reports with
// t.Error and returns an empty trace the caller's drain then rejects.
func mustNotRecord(t *testing.T) func(int) *trace.Recording {
	return func(int) *trace.Recording { t.Error("served call ran the recorder"); return fakeRec(0, 0) }
}

func TestShorterBudgetReplaysPrefix(t *testing.T) {
	c := New(1 << 20)
	drain(t, stream(c, "p", 100,
		func(int) *trace.Recording { return fakeRec(9, 100) },
		func() trace.Stream { return nil }), fakeTrace(9, 100))
	for _, n := range []int{40, 1, 0, 100} {
		drain(t, stream(c, "p", n, mustNotRecord(t), nil), fakeTrace(9, 100)[:n])
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 1 || st.Entries != 1 || st.UsedBytes != bytesOf(100) {
		t.Errorf("stats = %+v, want 4 hits / 1 miss / one 100-inst entry", st)
	}
}

func TestLongerBudgetReplacesRecording(t *testing.T) {
	c := New(1 << 20)
	records := 0
	get := func(n int) trace.Stream {
		return stream(c, "p", n,
			func(int) *trace.Recording { records++; return fakeRec(9, n) },
			func() trace.Stream { return nil })
	}
	drain(t, get(50), fakeTrace(9, 50))
	drain(t, get(100), fakeTrace(9, 100))
	if records != 2 {
		t.Fatalf("record ran %d times, want once per budget", records)
	}
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes != bytesOf(100) || st.Evictions != 0 {
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
		recorded <- stream(c, "p", 100,
			func(int) *trace.Recording { close(started); <-release; return fakeRec(4, 100) },
			func() trace.Stream { return nil })
	}()
	<-started
	waited := make(chan trace.Stream)
	go func() { waited <- stream(c, "p", 40, mustNotRecord(t), nil) }()
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
		short <- stream(c, "p", 50,
			func(int) *trace.Recording { close(started); <-release; return fakeRec(6, 50) },
			func() trace.Stream { return nil })
	}()
	<-started
	// The open 50-inst flight cannot cover 100: this call records its own.
	drain(t, stream(c, "p", 100,
		func(int) *trace.Recording { return fakeRec(6, 100) },
		func() trace.Stream { return nil }), fakeTrace(6, 100))
	close(release)
	drain(t, <-short, fakeTrace(6, 50))
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != bytesOf(100) {
		t.Errorf("stats = %+v, want the 100-inst recording to stay resident", st)
	}
	drain(t, stream(c, "p", 100, mustNotRecord(t), nil), fakeTrace(6, 100))
}

// TestPrefixHitAllocatesStreamOnly pins that a prefix is served in place:
// a prefix hit allocates what an exact hit does, the stream header, and
// never copies the recording.
func TestPrefixHitAllocatesStreamOnly(t *testing.T) {
	c := New(1 << 20)
	drain(t, stream(c, "p", 1000,
		func(int) *trace.Recording { return fakeRec(8, 1000) },
		func() trace.Stream { return nil }), fakeTrace(8, 1000))
	exact := testing.AllocsPerRun(100, func() { c.Stream("p", 1000, nil, nil) })
	prefix := testing.AllocsPerRun(100, func() { c.Stream("p", 10, nil, nil) })
	if exact != 1 || prefix != exact {
		t.Errorf("allocs per hit: exact %v, prefix %v; want 1 each (the stream header)", exact, prefix)
	}
}

func TestOversizeStreamsWithoutRecording(t *testing.T) {
	c := New(bytesOf(10))
	want := fakeTrace(2, 100)
	streamed := false
	s := stream(c, "big", 100,
		func(int) *trace.Recording { t.Fatal("oversize trace was recorded"); return nil },
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
	drain(t, stream(c, "small", 5, func(int) *trace.Recording { return fakeRec(3, 5) }, nil), fakeTrace(3, 5))
	drain(t, stream(c, "small", -1, mustNotRecord(t), func() trace.Stream { return trace.NewSliceStream(nil) }), nil)
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(bytesOf(250)) // fits two 100-inst traces, not three
	add := func(tag uint64, fp string) {
		s := stream(c, fp, 100,
			func(int) *trace.Recording { return fakeRec(tag, 100) },
			func() trace.Stream { return nil })
		drain(t, s, fakeTrace(tag, 100))
	}
	add(1, "a")
	add(2, "b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	drain(t, stream(c, "a", 100, nil, nil), fakeTrace(1, 100))
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
	s := stream(c, "b", 100,
		func(int) *trace.Recording { rerecorded = true; return fakeRec(2, 100) },
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
		drain(t, stream(c, fp, 10,
			func(int) *trace.Recording { return fakeRec(tag, 10) },
			func() trace.Stream { return nil }), fakeTrace(tag, 10))
	}
	c.SetBudget(bytesOf(15)) // room for one 10-inst trace
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != bytesOf(10) {
		t.Errorf("after shrink: %+v, want 1 entry", st)
	}
	c.SetBudget(0)
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("zero budget retained entries: %+v", st)
	}
	// Disabled cache streams straight through.
	used := false
	drain(t, stream(c, "x", 10,
		func(int) *trace.Recording { t.Fatal("recorded while disabled"); return nil },
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
			s := stream(c, "p", 64,
				func(int) *trace.Recording {
					records.Add(1)
					<-release // hold the flight open so others pile up
					return fakeRec(5, 64)
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
		stream(c, "boom", 8,
			func(int) *trace.Recording { panic("synthetic") },
			func() trace.Stream { return nil })
	}()
	// The flight must be gone: the next call records normally.
	drain(t, stream(c, "boom", 8,
		func(int) *trace.Recording { return fakeRec(3, 8) },
		func() trace.Stream { return nil }), fakeTrace(3, 8))
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats after recovery: %+v", st)
	}
}

// TestDeclinedRecordingStreamsLive covers a workload with more shapes
// than a recording may name: the record func declines, the call streams
// live, and later calls at that budget or longer stream live without
// trying again. A shorter budget, or a new cache budget, may record.
func TestDeclinedRecordingStreamsLive(t *testing.T) {
	c := New(1 << 20)
	tries := 0
	decline := func(int) *trace.Recording { tries++; return nil }
	live := func() trace.Stream { return trace.NewSliceStream(fakeTrace(4, 100)) }
	drain(t, stream(c, "wide", 100, decline, live), fakeTrace(4, 100))
	drain(t, stream(c, "wide", 150, decline, live), fakeTrace(4, 100))
	if tries != 1 {
		t.Errorf("record ran %d times, want once: a declined budget must not be retried", tries)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want two live misses and nothing resident", st)
	}
	drain(t, stream(c, "wide", 50, func(int) *trace.Recording { return fakeRec(4, 50) }, nil), fakeTrace(4, 50))
	c.SetBudget(2 << 20)
	drain(t, stream(c, "wide", 100, func(int) *trace.Recording { return fakeRec(4, 100) }, nil), fakeTrace(4, 100))
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != bytesOf(100) {
		t.Errorf("stats = %+v, want the 100-inst recording after the budget changed", st)
	}
}

// TestRecordGetsShapeLimit pins the shape limit the record func is given:
// the most shapes whose worst-case recording still fits the budget.
func TestRecordGetsShapeLimit(t *testing.T) {
	for _, budget := range []int64{1 << 20, 10_000, 2_000} {
		c := New(budget)
		got := -1
		stream(c, "p", 50, func(maxShapes int) *trace.Recording { got = maxShapes; return fakeRec(1, 0) }, nil)
		if want := trace.ShapeLimit(50, budget); got != want {
			t.Errorf("budget %d: record got a limit of %d shapes, want %d", budget, got, want)
		}
	}
}

// cancelAt is a stream that, before its k'th instruction, waits for
// release and then cancels its run's context.
type cancelAt struct {
	trace.Stream
	k       int
	release chan struct{}
	cancel  context.CancelFunc
}

func (s *cancelAt) Next(in *isa.Inst) bool {
	if s.k--; s.k == 0 {
		<-s.release
		s.cancel()
	}
	return s.Stream.Next(in)
}

// TestCancelledRecordingLeavesNoTrace: a recording whose run is cancelled
// mid-way returns the context's error, installs nothing, lets the call
// waiting on it stream live and marks nothing unrecordable, so a later run
// records the workload and the run after it replays the recording.
func TestCancelledRecordingLeavesNoTrace(t *testing.T) {
	c := New(1 << 30)
	insts := make([]isa.Inst, 1<<17)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(i%1000) * 4, Kind: isa.KindALU}
	}
	n := len(insts)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	cut := &cancelAt{Stream: trace.NewSliceStream(insts), k: 1000, release: release, cancel: cancel}
	type result struct {
		s   trace.Stream
		err error
	}
	started, recorded := make(chan struct{}), make(chan result)
	go func() {
		s, err := c.Stream("p", n,
			func(maxShapes int) (*trace.Recording, error) {
				close(started)
				return trace.Record(ctx, cut, n, maxShapes)
			},
			func() trace.Stream { t.Error("the cancelled recorder streamed live"); return nil })
		recorded <- result{s, err}
	}()
	<-started
	waited := make(chan trace.Stream)
	go func() {
		waited <- stream(c, "p", 100, mustNotRecord(t), func() trace.Stream { return trace.NewSliceStream(insts[:100]) })
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the flight
	close(release)
	if r := <-recorded; r.s != nil || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled recording = %v, %v; want no stream and context.Canceled", r.s, r.err)
	}
	drain(t, <-waited, insts[:100])
	c.mu.Lock()
	_, memo := c.unrecordable["p"]
	c.mu.Unlock()
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 || memo {
		t.Fatalf("after the cancel: stats %+v, unrecordable %v; want nothing resident or memoized", st, memo)
	}

	records := 0
	record := func(int) *trace.Recording {
		records++
		// Background is never done, so Record cannot fail.
		rec, _ := trace.Record(context.Background(), trace.NewSliceStream(insts), n, trace.MaxShapes)
		return rec
	}
	drain(t, stream(c, "p", n, record, nil), insts)
	drain(t, stream(c, "p", n, record, nil), insts)
	if st := c.Stats(); records != 1 || st.Entries != 1 || st.Hits != 1 {
		t.Errorf("recorded %d times, stats %+v; want one recording, then a hit", records, st)
	}
}
