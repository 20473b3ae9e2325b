package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// The disabled tracing path must be free: with no tracer configured, the
// span primitives the hot loop calls on every cell allocate nothing.
func TestTracingDisabledPathAllocatesNothing(t *testing.T) {
	var tr *telemetry.Tracer
	sc := telemetry.SpanContext{Trace: "deadbeefdeadbeef"}
	ctx := context.Background()
	checks := []struct {
		name string
		fn   func()
	}{
		{"nil-tracer StartSpan + methods", func() {
			sp := tr.StartSpan(sc, "worker.run")
			sp.SetAttr("bench", "crafty")
			_ = sp.Context()
			sp.End()
		}},
		{"live tracer, no inbound span", func() {
			live := testDisabledTracer
			sp := live.StartSpan(telemetry.SpanContext{}, "worker.run")
			sp.End()
		}},
		{"ContextWithSpan with invalid context", func() {
			_ = telemetry.ContextWithSpan(ctx, telemetry.SpanContext{})
		}},
		{"SpanFromContext on a bare context", func() {
			_ = telemetry.SpanFromContext(ctx)
		}},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// testDisabledTracer is shared so AllocsPerRun does not charge tracer
// construction to the measured body.
var testDisabledTracer = telemetry.NewTracer()

// traceConfigs is a small cross-policy slice of the golden matrix — enough
// to cover the SVF, stack-cache and baseline code paths without re-running
// all 72 cells in a -short-friendly test.
func traceConfigs() []Options {
	return []Options{
		{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 3_000},
		{Policy: pipeline.PolicySVF, SVFInfinite: true, MaxInsts: 3_000},
		{Policy: pipeline.PolicyStackCache, MaxInsts: 3_000},
		{Policy: pipeline.PolicyNone, MaxInsts: 3_000},
	}
}

// Tracing is strictly observational: running the same cells through a
// traced cache (tracer wired, span context inbound) and an untraced one
// must produce byte-identical results, and the trace context must not leak
// into cache keys.
func TestTracedRunsAreByteIdenticalToUntraced(t *testing.T) {
	profs := synth.Benchmarks()[:3]

	runAll := func(c *RunCache, ctx context.Context) []byte {
		t.Helper()
		var out []*Result
		for _, prof := range profs {
			for _, opt := range traceConfigs() {
				r, err := c.Run(ctx, prof, opt)
				if err != nil {
					t.Fatalf("%s: %v", prof.ID(), err)
				}
				out = append(out, r)
			}
		}
		buf, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	plain := runAll(NewRunCache(), context.Background())

	tracer := telemetry.NewTracer()
	traced := NewRunCache()
	traced.SetObserver(&Observer{Tracer: tracer})
	trace := telemetry.MintTraceID("svf-job|trace-test")
	root := tracer.StartSpan(telemetry.SpanContext{Trace: trace}, "job")
	ctx := telemetry.ContextWithSpan(context.Background(), root.Context())
	withTrace := runAll(traced, ctx)
	root.End()

	if string(plain) != string(withTrace) {
		t.Error("results diverge when tracing is enabled")
	}

	// Every cell produced a worker.run span under the root, and the trace
	// context stayed out of the canonical key space.
	spans := tracer.Spans(trace)
	runs := 0
	for _, sp := range spans {
		if sp.Name == "worker.run" {
			runs++
			if sp.Parent != spans[0].ID && sp.Parent == "" {
				t.Errorf("worker.run span has no parent")
			}
		}
	}
	if want := len(profs) * len(traceConfigs()); runs != want {
		t.Errorf("got %d worker.run spans, want %d", runs, want)
	}
	for _, opt := range traceConfigs() {
		if Canonical(opt) != Canonical(opt) {
			t.Error("Canonical is not stable")
		}
	}
}

// Cache hits and single-flight joins are annotated with zero-width serve
// spans rather than fresh execution spans, and retries become siblings of
// the original worker.run attempt under the same caller span.
func TestServeAndRetrySpans(t *testing.T) {
	tracer := telemetry.NewTracer()
	c := NewRunCache()
	c.SetObserver(&Observer{Tracer: tracer})
	c.SetRetries(1)
	c.SetBackoff(time.Millisecond, time.Second, 1, noSleep)
	prof := synth.Gzip()
	opt := Options{MaxInsts: 1_000}
	calls := countingRunFn(c, func(call int) (*Result, error) {
		if call == 1 {
			return nil, &Fault{Bench: prof.ID(), Panic: "deterministic"}
		}
		return &Result{Bench: prof.ID()}, nil
	})

	trace := telemetry.MintTraceID("svf-job|serve-spans")
	cell := tracer.StartSpan(telemetry.SpanContext{Trace: trace}, "cell[0]")
	ctx := telemetry.ContextWithSpan(context.Background(), cell.Context())
	if _, err := c.Run(ctx, prof, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, prof, opt); err != nil { // cache hit
		t.Fatal(err)
	}
	cell.End()
	if *calls != 2 {
		t.Fatalf("executed %d times, want 2 (fault + retry)", *calls)
	}

	byName := map[string][]telemetry.Span{}
	for _, sp := range tracer.Spans(trace) {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	cellID := byName["cell[0]"][0].ID
	if got := byName["worker.run"]; len(got) != 1 || got[0].Parent != cellID {
		t.Errorf("worker.run spans = %+v, want one parented to the cell", got)
	}
	if got := byName["retry"]; len(got) != 1 || got[0].Parent != cellID {
		t.Errorf("retry spans = %+v, want one sibling parented to the cell", got)
	}
	if got := byName["retry"]; len(got) == 1 && got[0].Attrs["outcome"] != "ok" {
		t.Errorf("retry outcome = %q, want ok", got[0].Attrs["outcome"])
	}
	if got := byName["cache.hit"]; len(got) != 1 || got[0].Parent != cellID {
		t.Errorf("cache.hit spans = %+v, want one parented to the cell", got)
	}
}

// A quarantined cell (retry budget exhausted) closes its trace with a
// quarantine span instead of leaving the attempt tree dangling.
func TestQuarantineSpan(t *testing.T) {
	tracer := telemetry.NewTracer()
	c := NewRunCache()
	c.SetObserver(&Observer{Tracer: tracer})
	c.SetRetries(1)
	c.SetBackoff(time.Millisecond, time.Second, 1, noSleep)
	prof := synth.Gzip()
	countingRunFn(c, func(int) (*Result, error) {
		return nil, &Fault{Bench: prof.ID(), Panic: "deterministic"}
	})

	trace := telemetry.MintTraceID("svf-job|quarantine")
	cell := tracer.StartSpan(telemetry.SpanContext{Trace: trace}, "cell[0]")
	ctx := telemetry.ContextWithSpan(context.Background(), cell.Context())
	var f *Fault
	if _, err := c.Run(ctx, prof, Options{MaxInsts: 1_000}); !errors.As(err, &f) {
		t.Fatalf("err = %v, want the fault", err)
	}
	cell.End()

	var quarantine *telemetry.Span
	for _, sp := range tracer.Spans(trace) {
		if sp.Name == "quarantine" {
			sp := sp
			quarantine = &sp
		}
	}
	if quarantine == nil {
		t.Fatal("no quarantine span recorded")
	}
	if quarantine.Attrs["bench"] != prof.ID() {
		t.Errorf("quarantine attrs = %+v", quarantine.Attrs)
	}
}
