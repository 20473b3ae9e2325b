package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// An injected panic must come back as a typed *Fault carrying the run's
// identity and machine state — never escape as a process-killing panic.
func TestInjectedPanicBecomesFault(t *testing.T) {
	prof := synth.Gzip()
	opt := Options{MaxInsts: 200_000, FaultPlan: &faultinject.Plan{PanicCycle: 2000}}
	res, err := RunContext(context.Background(), prof, opt)
	if err == nil {
		t.Fatalf("injected panic produced no error (result %+v)", res)
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T (%v), want *Fault", err, err)
	}
	if !strings.Contains(f.Panic, "faultinject: forced panic") {
		t.Errorf("Panic = %q, want the injected panic message", f.Panic)
	}
	if f.Cycle < 2000 {
		t.Errorf("Cycle = %d, want >= the injection point (2000)", f.Cycle)
	}
	if f.Bench != prof.ID() {
		t.Errorf("Bench = %q, want %q", f.Bench, prof.ID())
	}
	if len(f.Fingerprint) != 16 {
		t.Errorf("Fingerprint = %q, want a 16-hex-digit run ID", f.Fingerprint)
	}
	if f.State == "" || !strings.Contains(f.State, "RUU") {
		t.Errorf("State = %q, want a bounded pipeline dump", f.State)
	}
	if f.Stack == "" || len(f.Stack) > maxFaultStack {
		t.Errorf("Stack length %d, want non-empty and bounded by %d", len(f.Stack), maxFaultStack)
	}
	for _, part := range []string{f.Bench, f.Fingerprint, "cycle", "panic"} {
		if !strings.Contains(f.Error(), part) {
			t.Errorf("Error() = %q, missing %q", f.Error(), part)
		}
	}
}

// A stalled completion engine must trip the deadlock watchdog, and the
// watchdog's typed error must fold into the same *Fault shape.
func TestInjectedStallTripsWatchdog(t *testing.T) {
	prof := synth.Gzip()
	opt := Options{MaxInsts: 200_000, FaultPlan: &faultinject.Plan{StallCycle: 1000}}
	_, err := RunContext(context.Background(), prof, opt)
	if err == nil {
		t.Fatal("stalled machine finished successfully")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T (%v), want *Fault", err, err)
	}
	var dl *pipeline.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("fault does not unwrap to *pipeline.DeadlockError: %v", err)
	}
	if f.Cycle <= 1000 {
		t.Errorf("watchdog fired at cycle %d, want after the stall point", f.Cycle)
	}
	if f.Cycle != dl.Cycle || f.Committed != dl.Committed {
		t.Errorf("fault (%d,%d) disagrees with watchdog (%d,%d)", f.Cycle, f.Committed, dl.Cycle, dl.Committed)
	}
}

// Premature stream EOF is a degraded workload, not a fault: the run
// completes with however many instructions arrived.
func TestInjectedEOFTruncatesRun(t *testing.T) {
	prof := synth.Gzip()
	opt := Options{MaxInsts: 100_000, FaultPlan: &faultinject.Plan{EOFAfter: 1000}}
	res, err := RunContext(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipe.Committed == 0 || res.Pipe.Committed > 1000 {
		t.Errorf("committed %d instructions, want (0, 1000]", res.Pipe.Committed)
	}
}

// Corrupted trace records must either simulate through or surface as a
// contained *Fault — never an uncontained panic.
func TestCorruptedStreamIsContained(t *testing.T) {
	prof := synth.Gzip()
	for seed := int64(0); seed < 4; seed++ {
		opt := Options{MaxInsts: 100_000, FaultPlan: &faultinject.Plan{Seed: seed, CorruptEvery: 25}}
		_, err := RunContext(context.Background(), prof, opt)
		if err == nil {
			continue
		}
		var f *Fault
		if !errors.As(err, &f) {
			t.Errorf("seed %d: corruption escaped containment: %T (%v)", seed, err, err)
		}
	}
}

// A plan whose Bench does not match the workload must leave the run
// untouched.
func TestFaultPlanIgnoredForOtherBenchmarks(t *testing.T) {
	prof := synth.Gzip()
	clean, err := Run(prof, Options{MaxInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := RunContext(context.Background(), prof, Options{
		MaxInsts:  30_000,
		FaultPlan: &faultinject.Plan{Bench: "186.crafty", PanicCycle: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if planned.Cycles() != clean.Cycles() || planned.Pipe.Committed != clean.Pipe.Committed {
		t.Errorf("non-matching plan changed the run: %d/%d vs %d/%d cycles/committed",
			planned.Cycles(), planned.Pipe.Committed, clean.Cycles(), clean.Pipe.Committed)
	}
}

// An already-cancelled context must return promptly with context.Canceled —
// not a Fault — so supervisors can tell "stop" from "broke".
func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunContext(ctx, synth.Gzip(), Options{MaxInsts: 10_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var f *Fault
	if errors.As(err, &f) {
		t.Error("cancellation must not be folded into a Fault")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled run took %s, want a prompt return", d)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := RunContext(ctx, synth.Gzip(), Options{MaxInsts: 10_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// The functional traffic loop honours cancellation for every policy.
func TestTrafficOnlyPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prof := synth.Gzip()
	for _, policy := range []pipeline.StackPolicy{pipeline.PolicySVF, pipeline.PolicyStackCache, pipeline.PolicyRSE} {
		_, _, _, err := TrafficOnly(ctx, prof, policy, 8<<10, 10_000_000, 0)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", policy, err)
		}
	}
}

func TestFaultErrorAndUnwrap(t *testing.T) {
	cause := errors.New("underlying")
	f := &Fault{Bench: "b", Fingerprint: "0123456789abcdef", Cycle: 7, Committed: 3, Err: cause}
	if !errors.Is(f, cause) {
		t.Error("Unwrap must expose the underlying error")
	}
	msg := f.Error()
	for _, part := range []string{"b", "0123456789abcdef", "cycle 7", "3 committed", "underlying"} {
		if !strings.Contains(msg, part) {
			t.Errorf("Error() = %q, missing %q", msg, part)
		}
	}
}
