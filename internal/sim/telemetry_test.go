package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// fullProbe returns a probe with every instrumentation path switched on:
// registry mirroring, dense occupancy sampling, and the per-stage trace.
func fullProbe(reg *telemetry.Registry) *telemetry.Probe {
	p := telemetry.NewProbe(reg)
	p.SampleEvery = 64
	p.Trace = telemetry.NewPipelineTrace()
	// Small cap: the point is exercising the hooks on every run, not
	// holding sixty full timelines in memory at once.
	p.Trace.MaxEvents = 20_000
	return p
}

// The telemetry layer is strictly observational: the golden fixture must
// pass bit-identically with every probe enabled. This re-runs the full
// golden matrix instrumented and compares against the same fixture
// TestGoldenDeterminism uses.
func TestGoldenBitIdenticalWithTelemetryEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the full golden matrix")
	}
	buf, err := os.ReadFile(filepath.Join("testdata", "golden_stats.json"))
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	want := map[string]goldenRecord{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var samples uint64 // the registry's occupancy count so far
	for _, prof := range synth.Benchmarks() {
		for _, c := range goldenConfigs() {
			opt := c.opt
			opt.Probe = fullProbe(reg)
			r, err := Run(prof, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", prof.ID(), c.label, err)
			}
			got := goldenRecord{
				Pipe: r.Pipe, IL1: r.IL1, DL1: r.DL1, UL2: r.UL2,
				MemAccesses: r.MemAccesses,
				SVFQWIn:     r.SVFQWIn, SVFQWOut: r.SVFQWOut,
				SCQWIn: r.SCQWIn, SCQWOut: r.SCQWOut,
				RSEQWIn: r.RSEQWIn, RSEQWOut: r.RSEQWOut,
			}
			key := goldenKey(prof.ID(), c.label)
			if !reflect.DeepEqual(want[key], got) {
				t.Errorf("%s: instrumented run diverged from fixture\n%s", key, diffRecords(want[key], got))
			}
			n := reg.Histogram("svf_pipeline_ruu_occupancy").Count()
			if n == samples {
				t.Errorf("%s: probe recorded no occupancy samples", key)
			}
			samples = n
			// The echoed options must not leak the probe into results.
			if r.Opt.Probe != nil {
				t.Errorf("%s: Result.Opt still carries the probe", key)
			}
		}
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "svf_pipeline_ruu_occupancy_bucket") {
		t.Error("registry missing the aggregated occupancy histogram")
	}
}

// The registry's atomics must hold up under concurrent instrumented runs
// and concurrent /metrics renders (run with -race in CI).
func TestTelemetryRegistryRaceUnderConcurrentRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	profs := synth.Benchmarks()[:4]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			probe := telemetry.NewProbe(reg)
			probe.SampleEvery = 64
			opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 3_000, Probe: probe}
			if _, err := RunContext(context.Background(), profs[i%len(profs)], opt); err != nil {
				t.Error(err)
			}
		}(i)
	}
	renders := make(chan struct{})
	go func() {
		defer close(renders)
		for i := 0; i < 50; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-renders
	if n := reg.Histogram("svf_pipeline_ruu_occupancy").Count(); n < 8 {
		t.Errorf("%d occupancy observations reached the shared registry, want at least one per run", n)
	}
}

// A Figure 5-configuration run with the trace enabled must produce
// structurally valid Chrome trace-event JSON: the traceEvents array, known
// phases only, complete slices in every stage lane, and the lane-name
// metadata Perfetto uses to label the timeline.
func TestPerfettoTraceFromFig5ConfigRun(t *testing.T) {
	tr := telemetry.NewPipelineTrace()
	probe := telemetry.NewProbe(nil)
	probe.SampleEvery = 256
	probe.Trace = tr
	opt := Options{
		Machine: pipeline.SixteenWide(), Policy: pipeline.PolicySVF, SVFInfinite: true,
		MaxInsts: 5_000, Probe: probe,
	}
	if _, err := RunContext(context.Background(), synth.Crafty(), opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("displayTimeUnit missing")
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	slicesPerLane := map[float64]int{} // tid → "X" slice count
	laneNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event without pid: %v", ev)
		}
		tid, ok := ev["tid"].(float64)
		if !ok {
			t.Fatalf("event without numeric tid: %v", ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete slice without duration: %v", ev)
			}
			if name, _ := ev["name"].(string); name == "" {
				t.Fatalf("slice without a name: %v", ev)
			}
			slicesPerLane[tid]++
		case "M":
			if name, _ := ev["name"].(string); name == "thread_name" {
				args := ev["args"].(map[string]any)
				laneNames[args["name"].(string)] = true
			}
		case "C", "i":
		default:
			t.Fatalf("unknown trace phase %q: %v", ph, ev)
		}
	}
	for _, lane := range []string{"fetch/decode", "dispatch/wait-issue", "execute", "writeback/wait-commit"} {
		if !laneNames[lane] {
			t.Errorf("missing thread_name metadata for lane %q", lane)
		}
	}
	// The stage lanes are tids 1..4; a real run must populate all of them.
	for tid := 1.0; tid <= 4; tid++ {
		if slicesPerLane[tid] == 0 {
			t.Errorf("stage lane %v has no slices", tid)
		}
	}
}

// decodeEvents parses an NDJSON event log line by line.
func decodeEvents(t *testing.T, raw []byte) []telemetry.Event {
	t.Helper()
	var evs []telemetry.Event
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if ev.TS == "" || ev.Type == "" {
			t.Fatalf("event missing ts/type: %s", line)
		}
		evs = append(evs, ev)
	}
	return evs
}

// eventsOfType filters a decoded log.
func eventsOfType(evs []telemetry.Event, typ string) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range evs {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// A resumed journaled campaign must narrate its recovery in the event log:
// the journal_restore summary, cache_restore hits for completed cells,
// retry (with backoff) for a pending faulted cell, and latched for a cell
// the journal holds as permanently failed.
func TestJournaledResumeEmitsRestoreRetryLatchEvents(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	prof := synth.Gzip()
	okOpt := Options{MaxInsts: 1_000}    // completes in session 1
	retryOpt := Options{MaxInsts: 2_000} // left mid-retry by session 1
	latchOpt := Options{MaxInsts: 3_000} // exhausts its budget in session 1

	// Session 1: one real completed cell, one cell faulted to exhaustion,
	// and a hand-written pending fault record (a session that died before
	// its retry).
	var log1 bytes.Buffer
	l1 := telemetry.NewEventLog(&log1)
	c1, _, j1 := openJournaledCache(t, dir, journal.Options{})
	c1.SetRetries(1) // budget: 2 executions
	c1.SetBackoff(time.Millisecond, time.Second, 42, noSleep)
	c1.SetObserver(&Observer{Events: l1})
	if _, err := c1.Run(ctx, prof, okOpt); err != nil {
		t.Fatal(err)
	}
	countingRunFn(c1, func(int) (*Result, error) {
		return nil, &Fault{Bench: prof.ID(), Panic: "deterministic"}
	})
	var f *Fault
	if _, err := c1.Run(ctx, prof, latchOpt); !errors.As(err, &f) {
		t.Fatalf("err = %v, want the fault", err)
	}
	data, err := json.Marshal(faultPayload{Bench: prof.ID(), Msg: "killed mid-retry"})
	if err != nil {
		t.Fatal(err)
	}
	pendingKey := RunCellKey(prof, retryOpt)
	if err := j1.Append(journal.Record{Kind: "fault", Key: pendingKey, Attempts: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	s1 := decodeEvents(t, log1.Bytes())
	for _, typ := range []string{"run_start", "run_finish", "run_fault", "retry", "latched"} {
		if len(eventsOfType(s1, typ)) == 0 {
			t.Errorf("session 1 emitted no %s event", typ)
		}
	}

	// Session 2: the resumed campaign.
	var log2 bytes.Buffer
	l2 := telemetry.NewEventLog(&log2)
	c2, rs, j2 := openJournaledCache(t, dir, journal.Options{})
	defer j2.Close()
	if rs.Runs != 1 || rs.Faulted != 1 || rs.Latched != 1 {
		t.Fatalf("restore stats = %+v, want 1 run + 1 faulted + 1 latched", rs)
	}
	c2.SetRetries(1)
	c2.SetBackoff(time.Millisecond, time.Second, 42, noSleep)
	c2.SetObserver(&Observer{Events: l2})
	countingRunFn(c2, func(int) (*Result, error) { return &Result{Bench: prof.ID()}, nil })
	if _, err := c2.Run(ctx, prof, okOpt); err != nil { // served from disk
		t.Fatal(err)
	}
	if _, err := c2.Run(ctx, prof, retryOpt); err != nil { // pending → retried
		t.Fatal(err)
	}
	var le *LatchedError
	if _, err := c2.Run(ctx, prof, latchOpt); !errors.As(err, &le) { // refused
		t.Fatalf("err = %v, want LatchedError", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := decodeEvents(t, log2.Bytes())
	if s2[0].Type != "journal_restore" {
		t.Errorf("resumed log opens with %q, want journal_restore", s2[0].Type)
	}
	if jr := s2[0]; jr.Restored != 1 || jr.Faulted != 1 || jr.Latched != 1 {
		t.Errorf("journal_restore = %+v, want restored=1 faulted=1 latched=1", jr)
	}
	if evs := eventsOfType(s2, "cache_restore"); len(evs) != 1 || evs[0].Bench != prof.ID() {
		t.Errorf("cache_restore events = %+v, want exactly one for %s", evs, prof.ID())
	}
	if evs := eventsOfType(s2, "retry"); len(evs) != 1 || evs[0].Key != pendingKey || evs[0].Attempt != 2 {
		t.Errorf("retry events = %+v, want one for %s at attempt 2", evs, pendingKey)
	}
	if evs := eventsOfType(s2, "backoff"); len(evs) != 1 || evs[0].Key != pendingKey {
		t.Errorf("backoff events = %+v, want one for the retried cell", evs)
	}
	if evs := eventsOfType(s2, "latched"); len(evs) != 1 || evs[0].Detail != "refused without execution" {
		t.Errorf("latched events = %+v, want one gate refusal", evs)
	}
	if len(eventsOfType(s2, "run_fault")) != 0 {
		t.Error("resumed session reported a fault; every execution succeeded")
	}
}
