package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("runs_total") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("ipc")
	g.Set(1.25)
	if got := g.Load(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}

	h := r.Histogram("occ", 1, 2, 4)
	for _, v := range []float64{0, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 105.5 {
		t.Fatalf("sum = %v, want 105.5", h.Sum())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("svf_runs_total").Add(3)
	r.Help("svf_runs_total", "completed runs")
	r.Gauge("svf_ipc").Set(2.5)
	h := r.Histogram("svf_occ", 1, 4)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(9)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP svf_runs_total completed runs",
		"# TYPE svf_runs_total counter",
		"svf_runs_total 3",
		"# TYPE svf_ipc gauge",
		"svf_ipc 2.5",
		"# TYPE svf_occ histogram",
		`svf_occ_bucket{le="1"} 1`,
		`svf_occ_bucket{le="4"} 2`,
		`svf_occ_bucket{le="+Inf"} 3`,
		"svf_occ_sum 11.5",
		"svf_occ_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryAndProgressAreSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", 1).Observe(2)
	r.Help("x", "ignored")
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}

	var p *Progress
	p.AddTotal(5)
	p.Done(1)
	p.Fault()
	p.Latched()
	if snap := p.Snapshot(); snap.ETASec != -1 || snap.Done != 0 {
		t.Fatalf("nil progress snapshot = %+v", snap)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total").Inc()
				r.Counter(fmt.Sprintf("per_%d", i%4)).Inc()
				r.Histogram("hist", 1, 10, 100).Observe(float64(j))
				r.Gauge("g").Set(float64(j))
			}
		}(i)
	}
	// Render concurrently with the writers to exercise the lock discipline.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared_total").Load(); got != 8000 {
		t.Fatalf("shared_total = %d, want 8000", got)
	}
	if got := r.Histogram("hist").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestEventLogEmitsParseableNDJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	fixed := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	l.now = func() time.Time { return fixed }
	l.Emit(Event{Type: "run_start", Bench: "164.gzip.ref", Fingerprint: "deadbeefdeadbeef"})
	l.Emit(Event{Type: "run_finish", Bench: "164.gzip.ref", Cycles: 1000, Committed: 2000, IPC: 2})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var events []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Type != "run_start" || events[0].TS != fixed.Format(time.RFC3339Nano) {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].IPC != 2 || events[1].Cycles != 1000 {
		t.Fatalf("second event = %+v", events[1])
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errors.New("disk full")
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errors.New("disk full")
	}
	return n, nil
}

func TestEventLogLatchesWriteError(t *testing.T) {
	// Tiny buffer so the failing write surfaces on Emit, not Flush.
	l := &EventLog{bw: bufio.NewWriterSize(&failWriter{left: 4}, 8), now: time.Now}
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: "run_start", Bench: "x", Detail: strings.Repeat("y", 64)})
	}
	if l.Err() == nil {
		t.Fatal("write failure did not latch")
	}
}

func TestEventLogNilAndClose(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Type: "noop"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	real := NewEventLog(&buf)
	real.Emit(Event{Type: "interrupt"})
	if err := real.Close(); err != nil {
		t.Fatal(err)
	}
	if err := real.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if real.Err() != nil {
		t.Fatalf("closed log reports error: %v", real.Err())
	}
	if !strings.Contains(buf.String(), `"type":"interrupt"`) {
		t.Fatalf("close did not flush: %q", buf.String())
	}
}

func TestProbeSamplesIntoRegistry(t *testing.T) {
	r := NewRegistry()
	p := NewProbe(r)
	p.Sample(100, 8, 4, 2)
	p.Sample(200, 16, 8, 4)
	p.FastForward(500, 300)

	if got := r.Histogram("svf_pipeline_ruu_occupancy").Count(); got != 2 {
		t.Fatalf("ruu histogram count = %d, want 2", got)
	}
	if got := r.Histogram("svf_pipeline_ruu_occupancy").Sum(); got != 24 {
		t.Fatalf("ruu histogram sum = %v, want 24", got)
	}
	if got := r.Histogram("svf_pipeline_fastforward_span_cycles").Count(); got != 1 {
		t.Fatalf("ff histogram count = %d, want 1", got)
	}
	if got := r.Histogram("svf_pipeline_fastforward_span_cycles").Sum(); got != 300 {
		t.Fatalf("ff histogram sum = %v, want 300", got)
	}
	if p.Interval() != DefaultSampleEvery {
		t.Fatalf("interval = %d", p.Interval())
	}
}

func TestPipelineTraceStructure(t *testing.T) {
	tr := NewPipelineTrace()
	tr.Dispatch(1, 0x400000, "load", 10, 12)
	tr.Issue(1, 14, 18)
	tr.counterSample(15, 3, 1, 2)
	tr.Commit(1, 20, "svf", true, false)
	tr.Dispatch(2, 0x400004, "branch", 11, 13)
	tr.Squash(2, 16)
	tr.span("fast-forward", 30, 60, laneScheduler)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices, metas, counters, instants int
	sawLoadExecute := false
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["name"] == "load" && ev["tid"] == float64(laneExecute) {
				sawLoadExecute = true
				if ev["ts"] != float64(14) || ev["dur"] != float64(5) {
					t.Fatalf("execute slice ts/dur = %v/%v", ev["ts"], ev["dur"])
				}
				args := ev["args"].(map[string]any)
				if args["route"] != "svf" || args["forwarded"] != true {
					t.Fatalf("execute slice args = %v", args)
				}
			}
		case "M":
			metas++
		case "C":
			counters++
		case "i":
			instants++
		}
	}
	// 4 commit slices + 1 fast-forward span; 2 metadata per lane.
	if slices != 5 || metas != 12 || counters != 1 || instants != 1 {
		t.Fatalf("slices=%d metas=%d counters=%d instants=%d", slices, metas, counters, instants)
	}
	if !sawLoadExecute {
		t.Fatal("missing execute-lane slice for committed load")
	}
}

func TestPipelineTraceCap(t *testing.T) {
	tr := NewPipelineTrace()
	tr.MaxEvents = 3
	for seq := uint64(1); seq <= 5; seq++ {
		tr.Dispatch(seq, 0, "op", seq, seq+1)
		tr.Issue(seq, seq+2, seq+3)
		tr.Commit(seq, seq+4, "", false, false)
	}
	if tr.Events() != 3 {
		t.Fatalf("events = %d, want 3", tr.Events())
	}
	if tr.Dropped() == 0 {
		t.Fatal("cap recorded no drops")
	}
}

func TestProgressSnapshot(t *testing.T) {
	p := NewProgress()
	p.start = time.Now().Add(-10 * time.Second)
	p.AddTotal(4)
	if eta := p.Snapshot().ETASec; eta != -1 {
		t.Fatalf("eta with no work done = %v, want -1", eta)
	}
	p.Done(2)
	p.Fault()
	s := p.Snapshot()
	if s.Done != 2 || s.Total != 4 || s.Faults != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	// 2 done in ~10s, 2 left: ETA ~10s.
	if s.ETASec < 8 || s.ETASec > 12 {
		t.Fatalf("eta = %v, want ~10", s.ETASec)
	}
	p.Done(2)
	if eta := p.Snapshot().ETASec; eta != 0 {
		t.Fatalf("eta when complete = %v, want 0", eta)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("svf_runs_total").Add(7)
	prog := NewProgress()
	prog.AddTotal(10)
	prog.Done(3)

	srv := &Server{Registry: reg, Progress: prog}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "svf_runs_total 7") {
		t.Fatalf("/metrics = %q", out)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(get("/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Done != 3 || snap.Total != 10 {
		t.Fatalf("/progress = %+v", snap)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
