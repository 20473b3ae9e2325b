package sim

import (
	"context"
	"fmt"
	"time"

	"svf/internal/telemetry"
)

// Observer is the cell runtime's one telemetry handle: the RunCache
// (SetObserver), the shard pool (shard.Config.Obs) and the service
// (service.Config.Obs) all report into the same value, so a front end
// builds one and hands each layer the same pointer. It bundles the four
// sinks: the NDJSON event log, the metrics registry, the campaign progress
// tracker and the span tracer.
//
// Any field may be nil, which turns that sink off. The event log, the
// progress tracker and the tracer are nil-safe themselves; the helper
// methods below cover the registry, and are safe on a nil *Observer too.
// The layers that hold an Observer replace a nil one with a zero Observer,
// so their hot paths need no guards.
type Observer struct {
	// Events receives the typed lifecycle events: the cache's run_start,
	// run_finish, run_fault, retry, backoff, cache_hit, cache_restore,
	// latched and journal_restore, the pool's shard_* events and the
	// service's job_* and drain_* events.
	Events *telemetry.EventLog
	// Registry receives aggregate counters (runs, faults, retries, cache
	// traffic, simulated cycles/instructions, svf_shard_*, svf_service_*),
	// gauges, latency histograms and, through per-run probes, the
	// occupancy histograms.
	Registry *telemetry.Registry
	// Progress receives per-cell fault/latch counts from the cache and
	// done/total counts from the service. (In svfexp the experiment runner
	// counts done/total: it knows the sweep shape.)
	Progress *telemetry.Progress
	// Tracer receives spans for requests whose context carries a trace:
	// the service's job tree, the pool's lease spans and the cache's
	// worker.run/retry/quarantine and cache.hit/cache.join/journal.replay
	// spans. Nil disables span recording at zero cost.
	Tracer *telemetry.Tracer
}

// Count adds n to the named registry counter.
func (o *Observer) Count(name string, n uint64) {
	if o == nil || o.Registry == nil || n == 0 {
		return
	}
	o.Registry.Counter(name).Add(n)
}

// CountLabeled adds one to the counter name{label="value"}.
func (o *Observer) CountLabeled(name, label, value string) {
	if o == nil || o.Registry == nil {
		return
	}
	o.Registry.Counter(fmt.Sprintf("%s{%s=%q}", name, label, value)).Inc()
}

// SetGauge sets the named registry gauge.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil || o.Registry == nil {
		return
	}
	o.Registry.Gauge(name).Set(v)
}

// ObserveSeconds records d in the named seconds histogram
// (telemetry.SecondsBuckets), with trace as the bucket's exemplar.
func (o *Observer) ObserveSeconds(name string, d time.Duration, trace string) {
	if o == nil || o.Registry == nil {
		return
	}
	o.Registry.Histogram(name, telemetry.SecondsBuckets...).ObserveExemplar(d.Seconds(), trace)
}

// StartSpan opens a span under parent. It returns nil, a span whose
// methods are no-ops, when tracing is off or parent carries no trace.
func (o *Observer) StartSpan(parent telemetry.SpanContext, name string) *telemetry.ActiveSpan {
	if o == nil {
		return nil
	}
	return o.Tracer.StartSpan(parent, name)
}

// SetObserver attaches telemetry sinks to the cache; nil detaches them.
// Call it before the sweep starts; the cache does not synchronise against
// a concurrent swap. For a journaled cache the replay summary is emitted
// immediately as a journal_restore event, so a resumed campaign's log
// opens with what the journal put back.
func (c *RunCache) SetObserver(o *Observer) {
	if o == nil {
		o = &Observer{}
	}
	c.obs = o
	if r := o.Registry; r != nil {
		r.Help("svf_sim_runs_total", "timing simulations executed (cache misses + retries)")
		r.Help("svf_sim_run_faults_total", "contained simulation faults")
		r.Help("svf_sim_cycles_total", "simulated cycles across completed timing runs")
		r.Help("svf_sim_insts_total", "committed instructions across completed timing runs")
		r.Help("svf_cache_hits_total", "requests served from a completed cache entry")
		r.Help("svf_cache_restored_hits_total", "cache hits served from journal-restored cells")
	}
	if c.store.j != nil {
		rs := c.restore
		o.Events.Emit(telemetry.Event{
			Type:        "journal_restore",
			Restored:    rs.Restored(),
			Faulted:     rs.Faulted,
			Latched:     rs.Latched,
			Detail:      rs.Journal.String(),
			Records:     uint64(rs.Journal.Live),
			SyncBatches: 0,
		})
		for i := 0; i < rs.Latched; i++ {
			o.Progress.Latched()
		}
	}
}

// observeRunFinish records a completed timing run in the log and registry.
func (o *Observer) observeRunFinish(res *Result, fp string, dur time.Duration) {
	o.Events.Emit(telemetry.Event{
		Type:        "run_finish",
		Bench:       res.Bench,
		Fingerprint: fp,
		Cycles:      res.Cycles(),
		Committed:   res.Pipe.Committed,
		IPC:         res.IPC(),
		DurMS:       float64(dur) / float64(time.Millisecond),
	})
	o.Count("svf_sim_runs_total", 1)
	o.Count("svf_sim_cycles_total", res.Cycles())
	o.Count("svf_sim_insts_total", res.Pipe.Committed)
}

// served reports a cache request served without execution — a hit on a
// completed entry (restored when the journal replay seeded it) or a join
// of an in-flight simulation — as an event and registry counts, and, when
// the request's context carries a trace, as a zero-width span named by how
// it was served: journal.replay (the restart path's provenance marker),
// cache.join or cache.hit.
func (c *RunCache) served(ctx context.Context, bench, key string, how serve) {
	o := c.obs
	ev := telemetry.Event{Type: "cache_hit", Bench: bench, Key: key}
	span := "cache.hit"
	switch how {
	case restoredHit:
		ev.Type, span = "cache_restore", "journal.replay"
		o.Count("svf_cache_restored_hits_total", 1)
	case joined:
		ev.Detail, span = "joined in-flight simulation", "cache.join"
	}
	if o.Events != nil {
		ev.Fingerprint = shortKey(key)
		o.Events.Emit(ev)
	}
	o.Count("svf_cache_hits_total", 1)
	if sp := o.StartSpan(telemetry.SpanFromContext(ctx), span); sp != nil {
		sp.SetAttr("bench", bench)
		sp.SetAttr("key", key)
		sp.End()
	}
}
