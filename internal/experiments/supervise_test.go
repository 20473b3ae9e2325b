package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/sim"
	"svf/internal/synth"
)

// Under the fail policy, one task's failure must cancel its running
// siblings, and the real fault — not the cancellation fallout — must be the
// suite's error.
func TestForEachCancelsSiblingsOnFailure(t *testing.T) {
	cfg := Config{Parallel: 4}
	started := make(chan struct{}, 3)
	err := cfg.forEach(4, func(ctx context.Context, i int) error {
		if i != 0 {
			started <- struct{}{}
			<-ctx.Done() // a sibling simulation mid-flight
			return ctx.Err()
		}
		for j := 0; j < 3; j++ {
			<-started
		}
		return errTest
	})
	if !errors.Is(err, errTest) {
		t.Fatalf("err = %v, want the real fault, not cancellation fallout", err)
	}
}

// An already-cancelled suite context must surface as context.Canceled, not
// as a successful run over empty cells.
func TestForEachAlreadyCancelledSuite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Parallel: 2, Ctx: ctx}
	ran := 0
	err := cfg.forEach(5, func(ctx context.Context, i int) error {
		ran++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d tasks ran under a cancelled suite", ran)
	}
}

// The acceptance scenario in miniature: with a panic injected into one of
// the benchmarks, Fig5 under FaultContinue completes, renders the healthy
// benchmark's cells, leaves the injected one as NaN gaps, and logs the
// fault with its fingerprint and cycle.
func TestFig5ContinuesPastInjectedPanic(t *testing.T) {
	cfg := Config{
		MaxInsts:     60_000,
		TrafficInsts: 300_000,
		Benchmarks:   []*synth.Profile{synth.Crafty(), synth.Parser()},
		Cache:        sim.NewRunCache(),
		OnFault:      FaultContinue,
		Faults:       NewFaultLog(),
		Inject:       &faultinject.Plan{Bench: "crafty", PanicCycle: 400},
	}
	r, err := Fig5(cfg)
	if err != nil {
		t.Fatalf("suite aborted under FaultContinue: %v", err)
	}
	var craftyRow, parserRow Fig5Row
	for _, row := range r.Rows {
		if strings.Contains(row.Bench, "crafty") {
			craftyRow = row
		} else {
			parserRow = row
		}
	}
	for _, v := range []float64{craftyRow.Wide4, craftyRow.Wide8, craftyRow.Wide16, craftyRow.Gshare16} {
		if !math.IsNaN(v) {
			t.Errorf("crafty cell = %v, want a NaN gap for the faulted benchmark", v)
		}
	}
	for _, v := range []float64{parserRow.Wide4, parserRow.Wide8, parserRow.Wide16, parserRow.Gshare16} {
		if math.IsNaN(v) || v < 0.8 || v > 3 {
			t.Errorf("parser cell = %v, want a healthy speedup", v)
		}
	}
	if math.IsNaN(r.Mean16) {
		t.Error("means must skip the faulted benchmark, not absorb its NaN")
	}
	if len(faultsOf(cfg.Faults)) == 0 {
		t.Fatal("no fault recorded")
	}
	var f *sim.Fault
	if !errors.As(faultsOf(cfg.Faults)[0], &f) {
		t.Fatalf("logged error %v is not a *sim.Fault", faultsOf(cfg.Faults)[0])
	}
	if f.Cycle < 400 || len(f.Fingerprint) != 16 || !strings.Contains(f.Bench, "crafty") {
		t.Errorf("fault identity incomplete: cycle=%d fingerprint=%q bench=%q", f.Cycle, f.Fingerprint, f.Bench)
	}
	if s := cfg.Faults.Summary(); !strings.Contains(s, "fault(s)") {
		t.Errorf("summary %q missing the headline", s)
	}
	// The rendered table shows the gaps, not zeros.
	if tbl := r.Table().String(); !strings.Contains(tbl, "n/a") {
		t.Errorf("table did not render the failed cells as n/a:\n%s", tbl)
	}
}

// Under the default fail policy the injected fault aborts the suite and
// propagates as a *sim.Fault.
func TestFig5FailPolicyAborts(t *testing.T) {
	cfg := Config{
		MaxInsts:     60_000,
		TrafficInsts: 300_000,
		Benchmarks:   []*synth.Profile{synth.Crafty(), synth.Parser()},
		Cache:        sim.NewRunCache(),
		Inject:       &faultinject.Plan{Bench: "crafty", PanicCycle: 400},
	}
	_, err := Fig5(cfg)
	var f *sim.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want the injected *sim.Fault", err)
	}
}

// A per-run deadline expiry is a cell fault: recorded, degradable, and
// distinguishable from suite cancellation.
func TestRunTimeoutIsRecordedAndDegradable(t *testing.T) {
	cfg := Config{
		RunTimeout: time.Nanosecond,
		OnFault:    FaultContinue,
		Faults:     NewFaultLog(),
		Cache:      sim.NewRunCache(),
	}
	cfg.fillDefaults()
	_, err := cfg.run(context.Background(), synth.Gzip(), sim.Options{MaxInsts: 1_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(faultsOf(cfg.Faults)) != 1 {
		t.Errorf("faults logged = %d, want the deadline expiry recorded", len(faultsOf(cfg.Faults)))
	}
	if d := cfg.degrade(err); d != nil {
		t.Errorf("degrade(%v) = %v, want nil under FaultContinue", err, d)
	}
	// Suite cancellation, by contrast, is never recorded and never degraded.
	cancelErr := context.Canceled
	cfg.record(cancelErr)
	if len(faultsOf(cfg.Faults)) != 1 {
		t.Error("suite cancellation was recorded as a fault")
	}
	if cfg.degrade(cancelErr) == nil {
		t.Error("suite cancellation must propagate even under FaultContinue")
	}
}

func TestParseFaultPolicy(t *testing.T) {
	for _, c := range []struct {
		s    string
		want FaultPolicy
	}{{"fail", FaultFail}, {"continue", FaultContinue}} {
		got, err := ParseFaultPolicy(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseFaultPolicy(%q) = %v, %v", c.s, got, err)
		}
		if got.String() != c.s {
			t.Errorf("String() = %q, want %q", got.String(), c.s)
		}
	}
	if _, err := ParseFaultPolicy("explode"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestFaultLog(t *testing.T) {
	var nilLog *FaultLog
	nilLog.Add(errors.New("x")) // must not panic
	if nilLog.Summary() != "" || faultsOf(nilLog) != nil {
		t.Error("nil log must be inert")
	}
	l := NewFaultLog()
	if l.Summary() != "" {
		t.Error("empty log should render nothing")
	}
	l.Add(nil) // ignored
	l.Add(errors.New("boom"))
	l.Add(errors.New("bang"))
	if len(faultsOf(l)) != 2 {
		t.Errorf("%d faults, want 2", len(faultsOf(l)))
	}
	s := l.Summary()
	for _, part := range []string{"2 simulation fault(s)", "[1] boom", "[2] bang"} {
		if !strings.Contains(s, part) {
			t.Errorf("summary %q missing %q", s, part)
		}
	}
}
