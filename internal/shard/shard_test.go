package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// testProfile returns a small real workload; runs stay fast via MaxInsts.
func testProfile(t *testing.T) *synth.Profile {
	t.Helper()
	prof := synth.ByName("186.crafty.ref")
	if prof == nil {
		t.Fatal("benchmark 186.crafty.ref missing")
	}
	return prof
}

func testOptions() sim.Options {
	return sim.Options{Policy: pipeline.PolicySVF, SVFInfinite: true, MaxInsts: 2000}
}

// inprocSpawner runs a real Worker in this process over pipes — the full
// protocol with no exec overhead. Exit and Hang are overridden so chaos
// flags kill the fake process (break its pipes) instead of the test binary.
func inprocSpawner() Spawner {
	return func() (*Proc, error) {
		inR, inW := io.Pipe()   // coordinator → worker
		outR, outW := io.Pipe() // worker → coordinator
		die := func() {
			inR.CloseWithError(errors.New("worker killed"))
			outW.CloseWithError(errors.New("worker killed"))
		}
		w := &Worker{
			In:   inR,
			Out:  outW,
			Exit: func(int) { die() },
			Hang: func() { select {} },
		}
		go func() {
			_ = w.Run(context.Background())
			outW.Close()
		}()
		return &Proc{
			In:   inW,
			Out:  outR,
			Kill: func() error { die(); return nil },
		}, nil
	}
}

// TestFrameRoundTrip exercises the codec for every frame shape the
// protocol uses, including a flattened fault reconstructing as *sim.Fault.
func TestFrameRoundTrip(t *testing.T) {
	prof := testProfile(t)
	opt := testOptions()
	frames := []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, PID: 1234},
		{Type: FrameCell, Lease: 7, Cell: &Cell{Kind: CellRun, Prof: prof, Opt: &opt, HeartbeatMS: 50, Kill: true}},
		{Type: FrameCell, Lease: 8, Cell: &Cell{Kind: CellTraffic, Prof: prof, Policy: pipeline.PolicyStackCache, SizeBytes: 8 << 10, MaxInsts: 1000, CtxPeriod: 400, HeartbeatMS: 50}},
		{Type: FrameHeartbeat, Lease: 7},
		{Type: FrameResult, Lease: 7, Run: &sim.Result{Bench: prof.ID()}},
		{Type: FrameResult, Lease: 8, In: 1, Out: 2, CtxBytes: 3},
		{Type: FrameShutdown},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatalf("write %s: %v", f.Type, err)
		}
	}
	for _, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s frame did not round-trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("drained stream read = %v, want io.EOF", err)
	}
}

func TestFaultInfoReconstructsSimFault(t *testing.T) {
	orig := &sim.Fault{
		Bench: "b", Fingerprint: "f", Cycle: 10, Committed: 5,
		Panic: "boom", State: "ruu", Stack: "stack", Err: errors.New("cause"),
	}
	info := faultInfoOf(orig)
	var f *sim.Fault
	if err := info.Err(); !errors.As(err, &f) {
		t.Fatalf("reconstructed error %T is not *sim.Fault", err)
	} else if f.Bench != "b" || f.Cycle != 10 || f.Panic != "boom" || f.Err == nil || f.Err.Error() != "cause" {
		t.Errorf("fault fields lost in round trip: %+v", f)
	}

	plain := faultInfoOf(errors.New("bad config"))
	if err := plain.Err(); errors.As(err, &f) {
		t.Errorf("opaque error reconstructed as *sim.Fault: %v", err)
	} else if err.Error() != "bad config" {
		t.Errorf("opaque error text = %q", err.Error())
	}
}

// TestPoolExecutesBitIdentical runs cells through a real worker fleet and
// checks results and traffic counters against in-process execution.
func TestPoolExecutesBitIdentical(t *testing.T) {
	prof := testProfile(t)
	opt := testOptions()
	pool, err := NewPool(Config{Workers: 2, Spawn: inprocSpawner(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	want, err := sim.RunContext(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.ExecRun(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded run differs from in-process run:\n got %+v\nwant %+v", got, want)
	}

	wIn, wOut, wCtx, err := sim.TrafficOnly(context.Background(), prof, pipeline.PolicySVF, 8<<10, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	gIn, gOut, gCtx, err := pool.ExecTraffic(context.Background(), prof, pipeline.PolicySVF, 8<<10, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gIn != wIn || gOut != wOut || gCtx != wCtx {
		t.Errorf("sharded traffic = (%d,%d,%d), in-process (%d,%d,%d)", gIn, gOut, gCtx, wIn, wOut, wCtx)
	}

	st := pool.Status()
	if st.Assigned != 2 || st.Completed != 2 || st.WorkerDeaths != 0 {
		t.Errorf("status = %+v, want 2 assigned, 2 completed, 0 deaths", st)
	}
}

// TestWorkerKillReenqueuesAndStaysBitIdentical is the chaos half of the
// worker-kill satellite at the package level: the worker holding the first
// assignment dies abruptly; the cache's bounded retry re-enqueues the cell
// and the final result is bit-identical to a clean run.
func TestWorkerKillReenqueuesAndStaysBitIdentical(t *testing.T) {
	prof := testProfile(t)
	opt := testOptions()
	plan, err := faultinject.Parse("worker-kill=1")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Active() || plan.JournalActive() || !plan.WorkerKillAt(1) {
		t.Fatalf("worker-kill plan classification wrong: %+v", plan)
	}
	pool, err := NewPool(Config{Workers: 2, Spawn: inprocSpawner(), Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cache, _ := sim.NewRunCacheWithJournal(nil, nil)
	cache.SetExecutor(pool)
	cache.SetRetries(2)
	cache.SetBackoff(time.Millisecond, time.Millisecond, 1, func(context.Context, time.Duration) error { return nil })

	got, err := cache.Run(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunContext(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-kill result differs from clean run")
	}
	st := pool.Status()
	if st.WorkerDeaths != 1 || st.Reenqueued != 1 || st.Respawns != 1 {
		t.Errorf("status = %+v, want 1 death, 1 re-enqueue, 1 respawn", st)
	}
	cs := cache.Stats()
	if cs.Errors != 1 || cs.Retries != 1 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 error, 1 retry, 1 miss", cs)
	}
}

// TestWorkerStallExpiresLease wedges the worker mid-cell (no heartbeats);
// the watchdog must expire the lease, kill the worker, and re-enqueue.
func TestWorkerStallExpiresLease(t *testing.T) {
	prof := testProfile(t)
	opt := testOptions()
	plan := &faultinject.Plan{WorkerStall: 1}
	pool, err := NewPool(Config{
		Workers: 2, Spawn: inprocSpawner(), Plan: plan, Logf: t.Logf,
		LeaseTTL: 50 * time.Millisecond, Heartbeat: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cache, _ := sim.NewRunCacheWithJournal(nil, nil)
	cache.SetExecutor(pool)
	cache.SetRetries(2)
	cache.SetBackoff(time.Millisecond, time.Millisecond, 1, func(context.Context, time.Duration) error { return nil })

	if _, err := cache.Run(context.Background(), prof, opt); err != nil {
		t.Fatal(err)
	}
	st := pool.Status()
	if st.LeaseExpired != 1 || st.WorkerDeaths != 1 || st.Reenqueued != 1 {
		t.Errorf("status = %+v, want 1 lease expiry, 1 death, 1 re-enqueue", st)
	}
}

// manualWorker gives a test the worker's end of the pipes so it can break
// protocol on purpose (withhold heartbeats, send frames after expiry).
type manualWorker struct {
	in     *Frame // last cell received (set by readCell)
	fromCo *io.PipeReader
	toCo   *io.PipeWriter
	killed chan struct{} // closed when the pool "kills" the process
}

// manualSpawner hands each spawned worker to the tests via the channel.
// Kill is a no-op signal (close killed) rather than a pipe teardown, so a
// test can keep talking after the watchdog fires — exactly the window
// where a late result must be discarded as stale.
func manualSpawner(ch chan *manualWorker) Spawner {
	return func() (*Proc, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		mw := &manualWorker{fromCo: inR, toCo: outW, killed: make(chan struct{})}
		var once sync.Once
		ch <- mw
		return &Proc{
			In:   inW,
			Out:  outR,
			Kill: func() error { once.Do(func() { close(mw.killed) }); return nil },
		}, nil
	}
}

func (m *manualWorker) hello(t *testing.T) {
	t.Helper()
	if err := writeFrame(m.toCo, &Frame{Type: FrameHello, Version: ProtocolVersion, PID: 1}); err != nil {
		t.Fatalf("manual hello: %v", err)
	}
}

func (m *manualWorker) readCell(t *testing.T) *Frame {
	t.Helper()
	for {
		f, err := readFrame(m.fromCo)
		if err != nil {
			t.Fatalf("manual read: %v", err)
		}
		if f.Type == FrameCell {
			m.in = f
			return f
		}
	}
}

// die closes the worker's output, which the pool reads as process death.
func (m *manualWorker) die() { m.toCo.Close() }

// TestLateResultAfterExpiryDiscarded is the satellite-3 edge case: the
// worker goes silent, the watchdog expires the lease, and THEN the result
// (and a heartbeat) arrive. Both must be discarded as stale — the retry
// executes the cell again, and nothing is double-counted.
func TestLateResultAfterExpiryDiscarded(t *testing.T) {
	prof := testProfile(t)
	opt := testOptions()
	spawned := make(chan *manualWorker, 4)
	pool, err := NewPool(Config{
		Workers: 1, Spawn: manualSpawner(spawned), Logf: t.Logf,
		LeaseTTL: 60 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cache, _ := sim.NewRunCacheWithJournal(nil, nil)
	cache.SetExecutor(pool)
	cache.SetRetries(2)
	cache.SetBackoff(time.Millisecond, time.Millisecond, 1, func(context.Context, time.Duration) error { return nil })

	// Precompute the genuine result now: the manual workers never run the
	// simulator, and computing it later would outlive the short lease.
	real, err := sim.RunContext(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		res *sim.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := cache.Run(context.Background(), prof, opt)
		done <- runOut{res, err}
	}()

	// First assignment: receive the cell, heartbeat never, wait for the
	// watchdog to expire the lease (it "kills" us, which the manual proc
	// turns into a signal instead of a teardown).
	w1 := <-spawned
	w1.hello(t)
	cell := w1.readCell(t)
	select {
	case <-w1.killed:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never expired the silent lease")
	}
	// The lease is expired but our pipe still works: deliver the result
	// late, plus a late heartbeat. Both must be discarded.
	late := &Frame{Type: FrameResult, Lease: cell.Lease, Run: &sim.Result{Bench: "late-imposter"}}
	if err := writeFrame(w1.toCo, late); err != nil {
		t.Fatalf("late result write: %v", err)
	}
	if err := writeFrame(w1.toCo, &Frame{Type: FrameHeartbeat, Lease: cell.Lease}); err != nil {
		t.Fatalf("late heartbeat write: %v", err)
	}
	waitFor(t, func() bool {
		st := pool.Status()
		return st.StaleResults >= 1 && st.StaleHeartbeats >= 1
	}, "stale frames counted")
	w1.die() // now actually die; the death path delivers the expiry fault

	// The cache retries: a fresh worker gets the cell and answers properly.
	w2 := <-spawned
	w2.hello(t)
	cell2 := w2.readCell(t)
	if cell2.Lease == cell.Lease {
		t.Fatalf("retry reused lease %d", cell.Lease)
	}
	if err := writeFrame(w2.toCo, &Frame{Type: FrameResult, Lease: cell2.Lease, Run: real}); err != nil {
		t.Fatalf("result write: %v", err)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("run failed: %v", out.err)
	}
	if out.res.Bench == "late-imposter" {
		t.Fatal("late result from an expired lease was accepted")
	}
	st := pool.Status()
	if st.StaleResults != 1 || st.LeaseExpired != 1 {
		t.Errorf("status = %+v, want exactly 1 stale result, 1 lease expiry", st)
	}
	// Not double-counted: one miss, one error (the expiry), one retry, one
	// completed cell, one resident entry.
	cs := cache.Stats()
	if cs.Misses != 1 || cs.Errors != 1 || cs.Retries != 1 || cs.Entries != 1 {
		t.Errorf("cache stats double-counted: %+v", cs)
	}
	if got := pool.Status().Completed; got != 1 {
		t.Errorf("completed = %d, want 1 (stale result must not count)", got)
	}
}

// TestPoisonCellQuarantine is the satellite-3 poison case: a cell that
// kills K distinct workers latches permanently even with retry budget left.
func TestPoisonCellQuarantine(t *testing.T) {
	prof := testProfile(t)
	opt := testOptions()
	spawned := make(chan *manualWorker, 8)
	pool, err := NewPool(Config{
		Workers: 2, Spawn: manualSpawner(spawned), Logf: t.Logf, PoisonK: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cache, _ := sim.NewRunCacheWithJournal(nil, nil)
	cache.SetExecutor(pool)
	cache.SetRetries(10) // plenty of budget left when the quarantine fires
	cache.SetBackoff(time.Millisecond, time.Millisecond, 1, func(context.Context, time.Duration) error { return nil })

	done := make(chan error, 1)
	go func() {
		_, err := cache.Run(context.Background(), prof, opt)
		done <- err
	}()

	// Two distinct workers read the cell and die mid-cell.
	for i := 0; i < 2; i++ {
		w := <-spawned
		w.hello(t)
		w.readCell(t)
		w.die()
	}
	err = <-done
	var pe *PoisonCellError
	if !errors.As(err, &pe) {
		t.Fatalf("run error = %v, want *PoisonCellError", err)
	}
	if !pe.PermanentFault() || pe.Workers != 2 {
		t.Errorf("poison error = %+v", pe)
	}
	if st := pool.Status(); st.Quarantined != 1 || st.WorkerDeaths != 2 {
		t.Errorf("status = %+v, want 1 quarantined, 2 deaths", st)
	}

	// The cell is latched: a second request is refused without executing.
	_, err = cache.Run(context.Background(), prof, opt)
	var le *sim.LatchedError
	if !errors.As(err, &le) {
		t.Fatalf("post-quarantine run error = %v, want *sim.LatchedError", err)
	}
	if le.Attempts != 2 || !le.Poison {
		t.Errorf("latch = %+v, want 2 attempts with the poison flag", le)
	}
}

// TestPoolGracefulClose: Close drains idle workers via shutdown frames.
func TestPoolGracefulClose(t *testing.T) {
	pool, err := NewPool(Config{Workers: 3, Spawn: inprocSpawner(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ExecRun(context.Background(), testProfile(t), testOptions()); err == nil {
		t.Error("ExecRun after Close succeeded")
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStatusString covers the summary line's branches.
func TestStatusString(t *testing.T) {
	s := telemetry.ShardStatus{Workers: []telemetry.ShardWorker{{Alive: true}, {}}, Assigned: 5, Completed: 4,
		WorkerDeaths: 1, LeaseExpired: 1, Reenqueued: 1, Respawns: 1, StaleResults: 1, Quarantined: 1}
	out := s.String()
	for _, want := range []string{"1/2 workers alive", "5 assigned", "re-enqueued", "stale", "quarantined"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}
