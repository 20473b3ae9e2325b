// Package telemetry is the simulator's zero-cost-when-disabled
// observability layer: a lock-light metrics registry (counters, gauges,
// histograms) rendered in Prometheus text format, a per-run pipeline Probe
// feeding cycle-sampled occupancy histograms and per-stage instruction
// timelines, a structured NDJSON event log for campaign lifecycle events,
// a Chrome trace-event / Perfetto exporter, and a small HTTP endpoint
// (/metrics, /progress, /debug/pprof) for watching live sweeps.
//
// The layer is strictly observational: golden statistics are bit-identical
// whether telemetry is enabled or not (internal/sim's golden tests hold it
// to that), and a disabled probe costs the pipeline hot loop exactly one
// nil pointer check per cycle.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (stored as float64 bits so rates
// and ratios fit alongside occupancies).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram with atomic bucket
// counts: Observe is lock-free, so probes on concurrent runs can share one
// histogram safely. Bucket i counts observations <= bounds[i]; an implicit
// +Inf bucket catches the rest (the Prometheus histogram convention).
type Histogram struct {
	bounds    []float64
	buckets   []atomic.Uint64 // len(bounds)+1, cumulative on render
	count     atomic.Uint64
	sumBits   atomic.Uint64              // float64 sum, CAS-accumulated
	exemplars []atomic.Pointer[exemplar] // last exemplar per bucket
}

// exemplar is one sampled observation annotated with its trace ID,
// rendered in the OpenMetrics "# {trace_id=...} value" form so a scraped
// latency bucket links back to the span tree that produced it.
type exemplar struct {
	traceID string
	value   float64
}

// newHistogram builds a histogram over ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:    b,
		buckets:   make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(b)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.observe(v)
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// attaches it as the bucket's exemplar (last-writer-wins; a plain atomic
// store, so the hot path stays lock-free).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// observe records v and returns the bucket index it landed in.
func (h *Histogram) observe(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return i
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a lock-light named-metric registry: registration takes a
// mutex once per metric name, after which every operation on the returned
// Counter/Gauge/Histogram is a plain atomic. Metric names must match
// Prometheus conventions ([a-zA-Z_][a-zA-Z0-9_]*); the registry does not
// police them — a bad name simply renders as-is.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Counter returns (registering on first use) the named counter. Nil-safe:
// a nil registry returns a throwaway counter so call sites need no guard.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram. The
// bounds apply only on first registration; later calls reuse the existing
// buckets. Nil-safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Help records a HELP string rendered above the named metric.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// splitLabels splits a registered metric name into its base name and an
// optional inline label set: "svf_service_requests_total{route=\"/x\"}"
// → ("svf_service_requests_total", `route="/x"`). Labeled names let the
// registry stay a flat map while still rendering dimensioned families —
// HELP/TYPE headers attach to the base name, samples carry the labels.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// WritePrometheus renders every registered metric in the classic
// Prometheus text exposition format (text/plain; version=0.0.4), sorted by
// name for stable output. Exemplars are suppressed: they are not part of
// the classic format and a stock scraper rejects the whole scrape on one.
// Use WriteOpenMetrics when the client negotiated
// application/openmetrics-text.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeMetrics(w, false)
}

// WriteOpenMetrics renders every registered metric in the OpenMetrics
// text exposition format: histogram bucket lines carry their recorded
// exemplars ("# {trace_id=...} value"), counter families whose name ends
// in _total declare the suffix-stripped family name in their metadata (as
// the spec requires), and the document is terminated by "# EOF".
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeMetrics(w, true); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// writeMetrics is the shared renderer behind both exposition formats.
func (r *Registry) writeMetrics(w io.Writer, openMetrics bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	// Headers attach to base names and must appear once per family even
	// when several labeled series share it; sorted order keeps a family's
	// series adjacent, headered keeps the dedup exact regardless.
	headered := map[string]bool{}
	// family is the name declared in HELP/TYPE metadata; it differs from
	// base only for OpenMetrics counters, whose _total sample suffix is
	// stripped from the family name per the spec.
	emitHeader := func(base, family, typ string) error {
		if headered[base] {
			return nil
		}
		headered[base] = true
		if h, ok := help[base]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, h); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, typ)
		return err
	}
	for _, name := range sortedKeys(counters) {
		base, _ := splitLabels(name)
		family := base
		if openMetrics {
			family = strings.TrimSuffix(base, "_total")
		}
		if err := emitHeader(base, family, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, counters[name].Load()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		base, _ := splitLabels(name)
		if err := emitHeader(base, base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", name, gauges[name].Load()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(hists) {
		base, labels := splitLabels(name)
		if err := emitHeader(base, base, "histogram"); err != nil {
			return err
		}
		// A labeled histogram merges its labels into each sample's label
		// set: base_bucket{route="/x",le="0.01"}.
		pre := ""
		if labels != "" {
			pre = labels + ","
		}
		h := hists[name]
		// Exemplars render in the OpenMetrics form appended to the bucket
		// line: `... # {trace_id="..."} <value>`. They exist only in the
		// OpenMetrics exposition — the classic 0.0.4 format has no exemplar
		// syntax and a scraper would reject the whole scrape.
		exemplarSuffix := func(i int) string {
			if !openMetrics || i >= len(h.exemplars) {
				return ""
			}
			if e := h.exemplars[i].Load(); e != nil {
				return fmt.Sprintf(" # {trace_id=\"%s\"} %v", e.traceID, e.value)
			}
			return ""
		}
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%v\"} %d%s\n", base, pre, bound, cum, exemplarSuffix(i)); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d%s\n", base, pre, cum, exemplarSuffix(len(h.bounds))); err != nil {
			return err
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %v\n%s_count%s %d\n", base, suffix, h.Sum(), base, suffix, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
