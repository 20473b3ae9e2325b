package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseSpanContext(t *testing.T) {
	cases := []struct {
		in   string
		want SpanContext
		ok   bool
	}{
		{"", SpanContext{}, true},
		{"deadbeefdeadbeef", SpanContext{Trace: "deadbeefdeadbeef"}, true},
		{"deadbeefdeadbeef/0000000000000001", SpanContext{Trace: "deadbeefdeadbeef", Span: "0000000000000001"}, true},
		{"DEADBEEFDEADBEEF", SpanContext{Trace: "deadbeefdeadbeef"}, true}, // case-normalised
		{"nothex", SpanContext{}, false},
		{"deadbeefdeadbeef/xyz", SpanContext{}, false},
		{"abc", SpanContext{}, false}, // too short
		{"deadbeef deadbeef", SpanContext{}, false},
	}
	for _, c := range cases {
		got, err := ParseSpanContext(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseSpanContext(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSpanContext(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// String round-trips.
	sc := SpanContext{Trace: "deadbeefdeadbeef", Span: "0000000000000001"}
	back, err := ParseSpanContext(sc.String())
	if err != nil || back != sc {
		t.Errorf("round trip %q = %+v, %v", sc.String(), back, err)
	}
}

func TestMintTraceIDDeterministic(t *testing.T) {
	a, b := MintTraceID("svf-job|abc"), MintTraceID("svf-job|abc")
	if a != b {
		t.Errorf("same seed minted %s and %s", a, b)
	}
	if len(a) != 16 {
		t.Errorf("trace ID %q is not 16 hex chars", a)
	}
	if MintTraceID("svf-job|other") == a {
		t.Error("different seeds minted the same trace ID")
	}
	if sc, err := ParseSpanContext(a); err != nil || sc.Trace != a {
		t.Errorf("minted ID does not parse as a trace context: %v", err)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if got := SpanFromContext(ctx); got.Valid() {
		t.Errorf("empty context carries %+v", got)
	}
	// Invalid contexts do not wrap (the zero-cost disabled path).
	if ContextWithSpan(ctx, SpanContext{}) != ctx {
		t.Error("ContextWithSpan with invalid context did not return ctx unchanged")
	}
	sc := SpanContext{Trace: "deadbeefdeadbeef", Span: "0000000000000001"}
	if got := SpanFromContext(ContextWithSpan(ctx, sc)); got != sc {
		t.Errorf("SpanFromContext = %+v, want %+v", got, sc)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(SpanContext{Trace: "deadbeefdeadbeef"}, "x")
	if sp != nil {
		t.Fatal("nil tracer started a span")
	}
	// All nil-span methods must be safe.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Context().Valid() {
		t.Error("nil span has a valid context")
	}
	if tr.Spans("deadbeefdeadbeef") != nil {
		t.Error("nil tracer returned spans")
	}
	tr.SetEvents(nil)
	// A live tracer with an invalid parent is equally silent.
	live := NewTracer()
	if live.StartSpan(SpanContext{}, "x") != nil {
		t.Error("invalid parent started a span")
	}
}

func TestTracerRecordsSpanTree(t *testing.T) {
	tr := NewTracer()
	trace := MintTraceID("svf-job|tree")
	root := tr.StartSpan(SpanContext{Trace: trace}, "job")
	child := tr.StartSpan(root.Context(), "cell[0] bench")
	grand := tr.StartSpan(child.Context(), "worker.run")
	grand.SetAttr("attempt", "1")
	grand.End()
	child.End()
	root.SetAttr("job", "abc")
	root.End()

	spans := tr.Spans(trace)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["job"].Parent != "" {
		t.Errorf("root span has parent %q", byName["job"].Parent)
	}
	if byName["cell[0] bench"].Parent != byName["job"].ID {
		t.Error("cell span not parented to root")
	}
	if byName["worker.run"].Parent != byName["cell[0] bench"].ID {
		t.Error("grandchild not parented to cell span")
	}
	if byName["worker.run"].Attrs["attempt"] != "1" {
		t.Errorf("attrs lost: %+v", byName["worker.run"].Attrs)
	}
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Errorf("span %s has trace %q", sp.Name, sp.Trace)
		}
	}
	// Another trace's query sees nothing.
	if got := tr.Spans(MintTraceID("other")); len(got) != 0 {
		t.Errorf("unrelated trace has %d spans", len(got))
	}
}

func TestSpanDurationsMonotonic(t *testing.T) {
	tr := NewTracer()
	trace := MintTraceID("mono")
	sp := tr.StartSpan(SpanContext{Trace: trace}, "work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	spans := tr.Spans(trace)
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if d := spans[0].DurUS; d < 1000 {
		t.Errorf("slept 2ms but span lasted %dµs", d)
	}
}

func TestSpanEndEmitsEvent(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	tr := NewTracer()
	tr.SetEvents(log)
	trace := MintTraceID("events")
	root := tr.StartSpan(SpanContext{Trace: trace}, "job")
	child := tr.StartSpan(root.Context(), "cell")
	child.End()
	root.End()
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d events, want 2:\n%s", len(lines), buf.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "span_end" || ev.Trace != trace || ev.Name != "cell" || ev.Parent == "" {
		t.Errorf("first span_end = %+v", ev)
	}
	if ev.Schema != EventSchema {
		t.Errorf("schema = %d, want %d", ev.Schema, EventSchema)
	}
	if ev.DurMS < 0 {
		t.Errorf("negative duration %v", ev.DurMS)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer()
	tr.MaxSpansPerTrace = 4
	trace := MintTraceID("cap")
	for i := 0; i < 10; i++ {
		tr.StartSpan(SpanContext{Trace: trace}, "s").End()
	}
	if got := len(tr.Spans(trace)); got != 4 {
		t.Errorf("recorded %d spans, want 4", got)
	}
}

// TestTracerTraceCap: the tracer retains at most MaxTraces traces,
// evicting the least-recently-recorded one, so a long-running daemon's
// span memory is bounded across jobs, not just within one.
func TestTracerTraceCap(t *testing.T) {
	tr := NewTracer()
	tr.MaxTraces = 2
	a, b, c := MintTraceID("a"), MintTraceID("b"), MintTraceID("c")
	tr.StartSpan(SpanContext{Trace: a}, "job").End()
	tr.StartSpan(SpanContext{Trace: b}, "job").End()
	// Touch a again so b is the least recently recorded, then overflow.
	tr.StartSpan(SpanContext{Trace: a}, "cell").End()
	tr.StartSpan(SpanContext{Trace: c}, "job").End()

	if got := len(tr.Spans(b)); got != 0 {
		t.Errorf("evicted trace still has %d spans", got)
	}
	if got := len(tr.Spans(a)); got != 2 {
		t.Errorf("recently used trace has %d spans, want 2", got)
	}
	if got := len(tr.Spans(c)); got != 1 {
		t.Errorf("new trace has %d spans, want 1", got)
	}
	// Reading a trace refreshes it: after fetching a, overflowing again
	// must evict c (least recently touched), not a.
	_ = tr.Spans(a)
	tr.StartSpan(SpanContext{Trace: MintTraceID("d")}, "job").End()
	if got := len(tr.Spans(a)); got != 2 {
		t.Errorf("refreshed trace was evicted (has %d spans)", got)
	}
	if got := len(tr.Spans(c)); got != 0 {
		t.Errorf("stale trace survived eviction with %d spans", got)
	}
}

// TestSetAttrAfterEnd: End publishes a snapshot — a (contract-violating)
// SetAttr after End must not mutate what the tracer recorded.
func TestSetAttrAfterEnd(t *testing.T) {
	tr := NewTracer()
	trace := MintTraceID("attrs")
	sp := tr.StartSpan(SpanContext{Trace: trace}, "job")
	sp.SetAttr("outcome", "ok")
	sp.End()
	sp.SetAttr("outcome", "mutated")
	spans := tr.Spans(trace)
	if len(spans) != 1 || spans[0].Attrs["outcome"] != "ok" {
		t.Errorf("recorded span attrs mutated after End: %+v", spans)
	}
}

// TestWriteTraceDeterministic: rendering the same trace twice yields
// identical bytes, every event is well-formed, and lanes carry names.
func TestWriteTraceDeterministic(t *testing.T) {
	tr := NewTracer()
	trace := MintTraceID("det")
	root := tr.StartSpan(SpanContext{Trace: trace}, "job")
	for i := 0; i < 3; i++ {
		cell := tr.StartSpan(root.Context(), "cell")
		run := tr.StartSpan(cell.Context(), "worker.run")
		run.SetAttr("attempt", "1")
		run.End()
		cell.End()
	}
	root.End()

	var a, b bytes.Buffer
	if _, err := tr.WriteTrace(&a, trace); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTrace(&b, trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of one trace differ")
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	slices, meta := 0, 0
	ids := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			ids[ev.Args["span"].(string)] = true
			if ev.Dur == 0 {
				t.Errorf("slice %s has zero duration", ev.Name)
			}
		case "M":
			meta++
		}
	}
	if slices != 7 {
		t.Errorf("got %d slices, want 7", slices)
	}
	if meta == 0 {
		t.Error("no thread metadata events")
	}
	// Every slice's parent is another slice in the document (or empty).
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if p, ok := ev.Args["parent"]; ok && !ids[p.(string)] {
			t.Errorf("slice %s has orphan parent %v", ev.Name, p)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("svf_cell_run_seconds", SecondsBuckets...)
	h.ObserveExemplar(0.003, "deadbeefdeadbeef")
	h.Observe(0.004) // no exemplar; must not disturb the recorded one

	// Exemplars belong to the OpenMetrics exposition, which also ends in
	// the mandatory # EOF terminator.
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="deadbeefdeadbeef"} 0.003`) {
		t.Errorf("no exemplar in OpenMetrics exposition:\n%s", out)
	}
	if !strings.Contains(out, "svf_cell_run_seconds_count 2") {
		t.Errorf("count wrong:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics exposition not terminated by # EOF:\n%s", out)
	}

	// The classic 0.0.4 format has no exemplar syntax — a stock scraper
	// rejects the scrape on one — so WritePrometheus must suppress them.
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	classic := buf.String()
	if strings.Contains(classic, "# {") {
		t.Errorf("classic exposition leaks exemplar syntax:\n%s", classic)
	}
	if strings.Contains(classic, "# EOF") {
		t.Errorf("classic exposition has an OpenMetrics EOF marker:\n%s", classic)
	}
	if !strings.Contains(classic, "svf_cell_run_seconds_count 2") {
		t.Errorf("count wrong:\n%s", classic)
	}

	// Empty trace IDs never record exemplars.
	h2 := r.Histogram("svf_other_seconds", SecondsBuckets...)
	h2.ObserveExemplar(0.1, "")
	buf.Reset()
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `svf_other_seconds_bucket{le="0.1"} 1 #`) {
		t.Error("empty trace ID recorded an exemplar")
	}
}

// TestServeMetricsNegotiation: /metrics serves classic text by default and
// OpenMetrics (exemplars + # EOF) only when the Accept header asks for it.
func TestServeMetricsNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("svf_things_total").Inc()
	h := r.Histogram("svf_cell_run_seconds", SecondsBuckets...)
	h.ObserveExemplar(0.003, "deadbeefdeadbeef")
	srv := &Server{Registry: r}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(accept string) (string, string) {
		req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("Content-Type"), string(body)
	}

	ct, body := get("") // a stock text-format scraper sends no special Accept
	if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("default Content-Type = %q, want classic text format", ct)
	}
	if strings.Contains(body, "# {") || strings.Contains(body, "# EOF") {
		t.Errorf("classic scrape contains OpenMetrics syntax:\n%s", body)
	}

	// Prometheus ≥2.5 sends a q-weighted list naming openmetrics-text.
	ct, body = get("application/openmetrics-text; version=1.0.0,text/plain;version=0.0.4;q=0.5")
	if !strings.Contains(ct, "application/openmetrics-text") {
		t.Errorf("negotiated Content-Type = %q, want openmetrics-text", ct)
	}
	if !strings.Contains(body, `# {trace_id="deadbeefdeadbeef"} 0.003`) {
		t.Errorf("OpenMetrics scrape lost the exemplar:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics scrape missing # EOF:\n%s", body)
	}
	// Counter metadata drops the _total suffix in OpenMetrics only.
	if !strings.Contains(body, "# TYPE svf_things counter") || !strings.Contains(body, "svf_things_total 1") {
		t.Errorf("OpenMetrics counter family not suffix-stripped:\n%s", body)
	}
}
