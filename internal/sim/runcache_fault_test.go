package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/synth"
)

// stubRuns is a stub Executor: timing runs call run, traffic runs execute
// locally.
type stubRuns struct {
	localExecutor
	run func(context.Context, *synth.Profile, Options) (*Result, error)
}

func (s stubRuns) ExecRun(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error) {
	return s.run(ctx, prof, opt)
}

// countingRunFn installs a stub executor returning the given per-call
// results and returns the call counter.
func countingRunFn(c *RunCache, results func(call int) (*Result, error)) *int {
	calls := new(int)
	c.SetExecutor(stubRuns{run: func(context.Context, *synth.Profile, Options) (*Result, error) {
		*calls++
		return results(*calls)
	}})
	return calls
}

// Pinning test for the cache's failure policy: a contained fault is retried
// exactly once, the successful retry is cached, and both the failed attempt
// and the retry show up in the counters.
func TestRunCacheRetriesContainedFaultOnce(t *testing.T) {
	c := NewRunCache()
	c.SetBackoff(time.Millisecond, time.Second, 1, noSleep)
	prof := synth.Gzip()
	want := &Result{Bench: prof.ID()}
	calls := countingRunFn(c, func(call int) (*Result, error) {
		if call == 1 {
			return nil, &Fault{Bench: prof.ID(), Panic: "transient"}
		}
		return want, nil
	})
	out, err := c.Do(context.Background(), RunCell(prof, &Options{MaxInsts: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Run == nil || out.Run.Bench != prof.ID() {
		t.Fatalf("retry result = %+v", out.Run)
	}
	if *calls != 2 {
		t.Fatalf("executed %d times, want fail + one retry", *calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Retries != 1 || st.Errors != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want misses=1 retries=1 errors=1 entries=1", st)
	}
	// The retried success is a normal cached entry now.
	if _, err := c.Do(context.Background(), RunCell(prof, &Options{MaxInsts: 1000})); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Errorf("a hit re-executed the run (%d calls)", *calls)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v, want the second request to hit", st)
	}
}

// A deterministic fault fails twice (original + bounded retry), is reported,
// and is never cached. Its cell is latched: the next request is refused as
// a *LatchedError without executing, and is not a cache hit either.
func TestRunCacheNeverCachesFaults(t *testing.T) {
	c := NewRunCache()
	c.SetBackoff(time.Millisecond, time.Second, 1, noSleep)
	prof := synth.Gzip()
	calls := countingRunFn(c, func(int) (*Result, error) {
		return nil, &Fault{Bench: prof.ID(), Panic: "deterministic"}
	})
	_, err := c.Do(context.Background(), RunCell(prof, &Options{MaxInsts: 1000}))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want the fault", err)
	}
	if *calls != 2 {
		t.Fatalf("executed %d times, want original + one retry (no unbounded retries)", *calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Retries != 1 || st.Errors != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v, want misses=1 retries=1 errors=2 entries=0", st)
	}
	// Faults are never resident; the spent budget is. A later request is
	// refused at the gate, so the deterministic fault does not run again.
	_, err = c.Do(context.Background(), RunCell(prof, &Options{MaxInsts: 1000}))
	var le *LatchedError
	if !errors.As(err, &le) || le.Poison || le.Attempts != 2 {
		t.Fatalf("second request err = %v, want a budget latch after 2 attempts", err)
	}
	if *calls != 2 {
		t.Errorf("the latched cell executed again (%d calls)", *calls)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Latched != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want misses=1 hits=0 latched=1 entries=0", st)
	}
}

// A fault is not retried once the caller's context is gone — the retry
// would be cancelled work.
func TestRunCacheDoesNotRetryAfterCancellation(t *testing.T) {
	c := NewRunCache()
	prof := synth.Gzip()
	ctx, cancel := context.WithCancel(context.Background())
	calls := countingRunFn(c, func(int) (*Result, error) {
		cancel() // the fault and the suite's shutdown race; shutdown wins
		return nil, &Fault{Bench: prof.ID(), Panic: "boom"}
	})
	if _, err := c.Do(ctx, RunCell(prof, &Options{MaxInsts: 1000})); err == nil {
		t.Fatal("expected an error")
	}
	if *calls != 1 {
		t.Errorf("executed %d times, want no retry under a dead context", *calls)
	}
	if st := c.Stats(); st.Retries != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want retries=0 errors=1", st)
	}
}

// Fault-injected runs bypass the cache in both directions: they are never
// cached, never served from cache, and never retried.
func TestRunCacheInjectedRunsBypassCache(t *testing.T) {
	c := NewRunCache()
	prof := synth.Gzip()
	calls := countingRunFn(c, func(int) (*Result, error) {
		return &Result{Bench: prof.ID()}, nil
	})
	injected := Options{MaxInsts: 1000, FaultPlan: &faultinject.Plan{EOFAfter: 100}}
	for i := 0; i < 2; i++ {
		if _, err := c.Do(context.Background(), RunCell(prof, &injected)); err != nil {
			t.Fatal(err)
		}
	}
	if *calls != 2 {
		t.Errorf("injected runs executed %d times, want 2 (no memoization)", *calls)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want injected runs resident nowhere", st)
	}
	// A clean request for the canonically-identical options must simulate
	// fresh, not be served the injected result.
	if _, err := c.Do(context.Background(), RunCell(prof, &Options{MaxInsts: 1000})); err != nil {
		t.Fatal(err)
	}
	if *calls != 3 {
		t.Errorf("clean request after injected runs executed %d times total, want 3", *calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want the clean run cached", st.Entries)
	}

	// An injected fault is not retried: injection is deterministic, the
	// retry would fail identically.
	c2 := NewRunCache()
	calls2 := countingRunFn(c2, func(int) (*Result, error) {
		return nil, &Fault{Bench: prof.ID(), Panic: "injected"}
	})
	if _, err := c2.Do(context.Background(), RunCell(prof, &injected)); err == nil {
		t.Fatal("expected the injected fault")
	}
	if *calls2 != 1 {
		t.Errorf("injected fault executed %d times, want 1 (no retry)", *calls2)
	}
	if st := c2.Stats(); st.Retries != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want retries=0 errors=1", st)
	}
}

// TestPanickingExecutorLeavesNoEntry: an executor that panics once must not
// leave its cell's single-flight entry behind, or every later request for
// the cell would wait on an execution that never finishes. The panic
// reaches the requesting caller, and the next request executes afresh.
func TestPanickingExecutorLeavesNoEntry(t *testing.T) {
	c := NewRunCache()
	prof := synth.Gzip()
	cell := RunCell(prof, &Options{MaxInsts: 1000})
	calls := countingRunFn(c, func(call int) (*Result, error) {
		if call == 1 {
			panic("executor bug")
		}
		return &Result{Bench: prof.ID()}, nil
	})
	func() {
		defer func() {
			if r := recover(); r != "executor bug" {
				t.Fatalf("recovered %v, want the executor's panic", r)
			}
		}()
		c.Do(context.Background(), cell)
	}()
	if _, ok := c.cells.Load(cell.Key()); ok {
		t.Fatal("the panicked execution left its entry behind")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := c.Do(ctx, cell)
	if err != nil || out.Run == nil || *calls != 2 {
		t.Fatalf("next request = %+v, %v after %d execution(s); want a second, successful execution", out, err, *calls)
	}
}

// joinSignal is a context that closes joining when a caller first asks for
// its Done channel, which flightGroup.do does only once it has joined an
// execution in flight and is about to wait on it.
type joinSignal struct {
	context.Context
	once    sync.Once
	joining chan struct{}
}

func (c *joinSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joining) })
	return c.Context.Done()
}

// TestFlightWaitersReleasedOnPanic: a caller that joined an execution that
// then panics is released with an error, not left waiting on a flight that
// never lands.
func TestFlightWaitersReleasedOnPanic(t *testing.T) {
	var g flightGroup[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.do(context.Background(), "k", nil, func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	ctx := &joinSignal{Context: context.Background(), joining: make(chan struct{})}
	type answer struct {
		how serve
		err error
	}
	waited := make(chan answer, 1)
	go func() {
		_, how, err := g.do(ctx, "k", nil, func() (int, error) { return 7, nil })
		waited <- answer{how, err}
	}()
	<-ctx.joining
	close(release)
	select {
	case a := <-waited:
		if a.how != joined || !errors.Is(a.err, errFlightPanicked) {
			t.Errorf("waiter answered %v, %v; want joined, errFlightPanicked", a.how, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter is still blocked on the panicked flight")
	}
}
