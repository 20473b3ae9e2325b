package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing (DESIGN.md §5i). A trace is one job's (or one
// campaign's) causal record: a tree of spans covering admission, queue
// wait, lease supervision, worker execution, retries, journal replay and
// the final result. The TraceID is minted deterministically from the
// job's content fingerprint (MintTraceID), travels inbound on the
// X-Svf-Trace header, is persisted in the jobs journal, crosses the shard
// wire protocol as an optional frame field, and rides a context.Context
// between layers in-process (ContextWithSpan/SpanFromContext) — never
// inside sim.Options, so cache keys, fingerprints and journal identities
// are structurally unaffected, the same invariant Canonical enforces for
// probes.
//
// Like the Probe and the EventLog, the whole surface is nil-safe and
// zero-cost when disabled: a nil *Tracer returns a nil *ActiveSpan, every
// method on which is a no-op, and ContextWithSpan with an empty context
// returns its input unchanged — no allocation anywhere on the disabled
// path (held to that by testing.AllocsPerRun in internal/sim).

// SpanContext is the propagated half of a span: the trace it belongs to
// and the span ID that children parent to. The zero value means "no
// tracing"; every consumer treats it as a no-op.
type SpanContext struct {
	Trace string // 16-hex trace ID
	Span  string // 16-hex span ID, "" at the root
}

// Valid reports whether the context carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != "" }

// String renders the context in the X-Svf-Trace header form:
// "trace" or "trace/span".
func (sc SpanContext) String() string {
	if sc.Span == "" {
		return sc.Trace
	}
	return sc.Trace + "/" + sc.Span
}

// ParseSpanContext parses the X-Svf-Trace header form: a hex trace ID,
// optionally followed by "/" and a hex span ID. An empty string is the
// valid empty context. IDs are case-normalised to lower hex.
func ParseSpanContext(s string) (SpanContext, error) {
	if s == "" {
		return SpanContext{}, nil
	}
	trace, span, _ := strings.Cut(s, "/")
	sc := SpanContext{Trace: strings.ToLower(trace), Span: strings.ToLower(span)}
	if !isHexID(sc.Trace) || (sc.Span != "" && !isHexID(sc.Span)) {
		return SpanContext{}, fmt.Errorf("telemetry: malformed trace context %q (want hex[/hex])", s)
	}
	return sc, nil
}

// isHexID accepts 8..32 lower-hex characters.
func isHexID(s string) bool {
	if len(s) < 8 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// MintTraceID derives a 16-hex trace ID from seed. Deterministic on
// purpose: a job's trace ID is minted from its content-fingerprint ID, so
// a journal-replayed job (even one accepted before tracing existed)
// continues the same trace after a restart.
func MintTraceID(seed string) string {
	sum := sha256.Sum256([]byte("svf-trace-v1|" + seed))
	return hex.EncodeToString(sum[:8])
}

// spanCtxKey keys the span context in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc. An invalid sc returns ctx
// unchanged — the disabled path allocates nothing.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context carried by ctx, or the zero
// context.
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// Span is one completed span. Times are microsecond offsets from the
// tracer's epoch, measured on the monotonic clock — wall-clock skew
// (NTP steps, suspend) cannot produce negative or inflated durations.
type Span struct {
	Trace   string            `json:"trace"`
	ID      string            `json:"span"`
	Parent  string            `json:"parent,omitempty"` // "" at the root
	Name    string            `json:"name"`
	StartUS uint64            `json:"start_us"`
	DurUS   uint64            `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// DefaultMaxSpansPerTrace bounds one trace's recorded spans; beyond it
// spans are dropped rather than growing without bound.
const DefaultMaxSpansPerTrace = 16384

// DefaultMaxTraces bounds how many distinct traces the tracer retains.
// Without it a long-running daemon would leak every job's span tree
// forever; with it the tracer is a bounded cache of the most recently
// active traces, evicted least-recently-recorded first.
const DefaultMaxTraces = 512

// Tracer records completed spans per trace. All methods are safe for
// concurrent use and nil-safe: a nil *Tracer disables tracing at zero
// cost.
type Tracer struct {
	// MaxSpansPerTrace caps recorded spans per trace (0 selects
	// DefaultMaxSpansPerTrace). Set before the first span.
	MaxSpansPerTrace int

	// MaxTraces caps how many distinct traces are retained (0 selects
	// DefaultMaxTraces). Recording a span for a new trace beyond the cap
	// evicts the least-recently-recorded trace wholesale. Set before the
	// first span.
	MaxTraces int

	epoch time.Time
	seq   atomic.Uint64

	mu      sync.Mutex
	spans   map[string][]Span
	lastUse map[string]uint64 // per-trace recency stamp for eviction
	useSeq  uint64
	events  *EventLog
}

// NewTracer returns an empty tracer anchored at the current monotonic
// instant.
func NewTracer() *Tracer {
	return &Tracer{
		epoch:   time.Now(),
		spans:   map[string][]Span{},
		lastUse: map[string]uint64{},
	}
}

// SetEvents mirrors every span completion into l as a span_end event
// (nil detaches).
func (t *Tracer) SetEvents(l *EventLog) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = l
	t.mu.Unlock()
}

// sinceUS is the monotonic offset from the epoch in microseconds.
func (t *Tracer) sinceUS() uint64 {
	d := time.Since(t.epoch)
	if d < 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// ActiveSpan is an in-flight span; End records it. A nil *ActiveSpan (the
// disabled path) no-ops every method.
type ActiveSpan struct {
	t    *Tracer
	mu   sync.Mutex
	span Span
}

// StartSpan opens a span under parent. It returns nil — and the whole
// subtree disappears at zero cost — when the tracer is nil or the parent
// carries no trace.
func (t *Tracer) StartSpan(parent SpanContext, name string) *ActiveSpan {
	if t == nil || !parent.Valid() {
		return nil
	}
	return &ActiveSpan{t: t, span: Span{
		Trace:   parent.Trace,
		ID:      fmt.Sprintf("%016x", t.seq.Add(1)),
		Parent:  parent.Span,
		Name:    name,
		StartUS: t.sinceUS(),
	}}
}

// Context returns the context children should parent to.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.span.Trace, Span: s.span.ID}
}

// SetAttr attaches a key/value annotation.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.span.Attrs == nil {
		s.span.Attrs = map[string]string{}
	}
	s.span.Attrs[k] = v
	s.mu.Unlock()
}

// End closes the span, records it, and mirrors a span_end event (with a
// monotonic duration) into the attached event log. Idempotent-hostile on
// purpose: call exactly once.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	sp := s.span
	// The struct copy above still aliases the Attrs map; clone it under
	// the lock so a SetAttr racing with (or misused after) End cannot
	// mutate the map the tracer stored and later renders unsynchronised.
	if len(sp.Attrs) > 0 {
		attrs := make(map[string]string, len(sp.Attrs))
		for k, v := range sp.Attrs {
			attrs[k] = v
		}
		sp.Attrs = attrs
	}
	s.mu.Unlock()
	end := s.t.sinceUS()
	if end < sp.StartUS {
		end = sp.StartUS
	}
	sp.DurUS = end - sp.StartUS
	s.t.record(sp)
}

// record appends one completed span under its trace's cap, evicting the
// least-recently-recorded trace when the trace cap would be exceeded.
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	limit := t.MaxSpansPerTrace
	if limit <= 0 {
		limit = DefaultMaxSpansPerTrace
	}
	if _, ok := t.spans[sp.Trace]; !ok {
		max := t.MaxTraces
		if max <= 0 {
			max = DefaultMaxTraces
		}
		for len(t.spans) >= max {
			t.evictOldestLocked()
		}
	}
	t.useSeq++
	t.lastUse[sp.Trace] = t.useSeq
	var events *EventLog
	if len(t.spans[sp.Trace]) < limit {
		t.spans[sp.Trace] = append(t.spans[sp.Trace], sp)
		events = t.events
	}
	t.mu.Unlock()
	if events != nil {
		events.Emit(Event{
			Type: "span_end", Trace: sp.Trace, Span: sp.ID, Parent: sp.Parent,
			Name: sp.Name, DurMS: float64(sp.DurUS) / 1000,
		})
	}
}

// evictOldestLocked removes the trace with the smallest recency stamp.
// Callers hold t.mu. A linear scan is fine at the cap's scale (hundreds).
func (t *Tracer) evictOldestLocked() {
	oldest, oldestUse := "", uint64(0)
	for trace, use := range t.lastUse {
		if oldest == "" || use < oldestUse {
			oldest, oldestUse = trace, use
		}
	}
	if oldest == "" {
		return
	}
	delete(t.spans, oldest)
	delete(t.lastUse, oldest)
}

// Spans returns the trace's completed spans in deterministic order:
// ascending start, then descending duration (parents before the children
// they contain), then name, then ID. The slice is a copy.
func (t *Tracer) Spans(trace string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans[trace]...)
	if _, ok := t.spans[trace]; ok {
		// Reading a trace refreshes it against MaxTraces eviction, so a
		// trace being watched stays resident while idle ones age out.
		t.useSeq++
		t.lastUse[trace] = t.useSeq
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		if a.DurUS != b.DurUS {
			return a.DurUS > b.DurUS
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
	return out
}

// WriteTrace renders one trace as deterministic Chrome trace-event JSON —
// the same {"traceEvents": [...]} document the pipeline exporter writes,
// loadable by Perfetto and chrome://tracing. Lanes (trace "threads") are
// assigned per top-level subtree: the root span gets lane 1 and each of
// its direct children opens a lane, so concurrently executing cells
// render side by side while the spans inside one cell nest by
// containment. Rendering the same span set twice yields identical bytes
// (spans are sorted, struct fields ordered, and map keys sorted by
// encoding/json), which is what makes GET /v1/jobs/{id}/trace
// byte-identical across refetches.
func (t *Tracer) WriteTrace(w io.Writer, trace string) (int64, error) {
	return WriteSpanTrace(w, t.Spans(trace))
}

// WriteSpanTrace renders an already-sorted span set (see Tracer.Spans)
// as Chrome trace-event JSON.
func WriteSpanTrace(w io.Writer, spans []Span) (int64, error) {
	byID := make(map[string]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// Lane assignment: root → 1; each direct child of a root opens the
	// next lane in span order; deeper spans inherit their ancestor's lane.
	lane := make(map[string]int, len(spans))
	next := 2
	var laneOf func(sp *Span, depth int) int
	laneOf = func(sp *Span, depth int) int {
		if l, ok := lane[sp.ID]; ok {
			return l
		}
		l := 1
		parent, ok := byID[sp.Parent]
		switch {
		case sp.Parent == "" || !ok || depth > 64:
			l = 1 // root (or orphan/cycle fallback): the job lane
		case parent.Parent == "":
			l = next // direct child of a root opens its own lane
			next++
		default:
			l = laneOf(parent, depth+1)
		}
		lane[sp.ID] = l
		return l
	}
	laneName := map[int]string{1: "job"}
	events := make([]traceEvent, 0, 2*len(spans))
	for i := range spans {
		sp := &spans[i]
		l := laneOf(sp, 0)
		if _, ok := laneName[l]; !ok {
			laneName[l] = sp.Name
		}
		args := map[string]any{"trace": sp.Trace, "span": sp.ID}
		if sp.Parent != "" {
			args["parent"] = sp.Parent
		}
		for k, v := range sp.Attrs {
			args["attr."+k] = v
		}
		dur := sp.DurUS
		if dur == 0 {
			dur = 1 // zero-width slices vanish in the UI
		}
		events = append(events, traceEvent{
			Name: sp.Name, Ph: "X", TS: sp.StartUS, Dur: dur,
			PID: 1, TID: l, Args: args,
		})
	}
	// Thread-name metadata, emitted in lane order for stable bytes.
	meta := make([]traceEvent, 0, 2*len(laneName))
	lanes := make([]int, 0, len(laneName))
	for l := range laneName {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	for _, l := range lanes {
		meta = append(meta,
			traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: l,
				Args: map[string]any{"name": laneName[l]}},
			traceEvent{Name: "thread_sort_index", Ph: "M", PID: 1, TID: l,
				Args: map[string]any{"sort_index": l}},
		)
	}
	cw := &countingWriter{w: w}
	err := writeTraceDoc(cw, append(meta, events...))
	return cw.n, err
}

// writeTraceDoc writes the {"traceEvents": ...} envelope that both the span
// tree and the pipeline exporter (PipelineTrace.WriteTo) render into.
func writeTraceDoc(w io.Writer, events []traceEvent) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}

// SecondsBuckets are the histogram bounds shared by the job/cell/lease
// latency histograms (svf_job_queue_seconds, svf_cell_run_seconds,
// svf_lease_wait_seconds).
var SecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}
