package sim

import (
	"context"
	"time"

	"svf/internal/telemetry"
)

// Observer bundles the telemetry sinks a RunCache reports into: the NDJSON
// event log, the metrics registry, and the campaign progress tracker. Any
// field may be nil; a nil *Observer disables everything (every helper is
// nil-safe), so the cache's hot paths need no guards.
type Observer struct {
	// Events receives the typed run-lifecycle events (run_start,
	// run_finish, run_fault, retry, backoff, cache_hit, cache_restore,
	// latched, journal_restore).
	Events *telemetry.EventLog
	// Registry receives aggregate counters (runs, faults, retries, cache
	// traffic, simulated cycles/instructions) and, through per-run probes,
	// the occupancy histograms.
	Registry *telemetry.Registry
	// Progress receives per-cell fault/latch counts. The done/total counts
	// are the experiment runner's job (it knows the sweep shape).
	Progress *telemetry.Progress
	// Tracer receives execution spans (worker.run/retry/quarantine and the
	// cache.hit/cache.join/journal.replay serve spans) for requests whose
	// context carries a trace. Nil disables span recording at zero cost.
	Tracer *telemetry.Tracer
}

// tracer returns the attached tracer, nil-safely.
func (o *Observer) tracer() *telemetry.Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// emit forwards one event to the log.
func (o *Observer) emit(ev telemetry.Event) {
	if o == nil {
		return
	}
	o.Events.Emit(ev)
}

// count bumps a registry counter by n.
func (o *Observer) count(name string, n uint64) {
	if o == nil || o.Registry == nil || n == 0 {
		return
	}
	o.Registry.Counter(name).Add(n)
}

// SetObserver attaches telemetry sinks to the cache. Call it before the
// sweep starts; the cache does not synchronise against a concurrent swap.
// For a journaled cache the replay summary is emitted immediately as a
// journal_restore event, so a resumed campaign's log opens with what the
// journal put back.
func (c *RunCache) SetObserver(o *Observer) {
	c.obs = o
	if o == nil {
		return
	}
	if r := o.Registry; r != nil {
		r.Help("svf_sim_runs_total", "timing simulations executed (cache misses + retries)")
		r.Help("svf_sim_run_faults_total", "contained simulation faults")
		r.Help("svf_sim_cycles_total", "simulated cycles across completed timing runs")
		r.Help("svf_sim_insts_total", "committed instructions across completed timing runs")
		r.Help("svf_cache_hits_total", "requests served from a completed cache entry")
		r.Help("svf_cache_restored_hits_total", "cache hits served from journal-restored cells")
	}
	if c.store != nil && c.store.j != nil {
		rs := c.restore
		o.emit(telemetry.Event{
			Type:        "journal_restore",
			Restored:    rs.Restored(),
			Faulted:     rs.Faulted,
			Latched:     rs.Latched,
			Detail:      rs.Journal.String(),
			Records:     uint64(rs.Journal.Live),
			SyncBatches: 0,
		})
		for i := 0; i < rs.Latched; i++ {
			c.obs.progressLatched()
		}
	}
}

// Observer returns the attached observer (nil when none).
func (c *RunCache) Observer() *Observer { return c.obs }

// progressFault/progressLatched forward to the progress tracker.
func (o *Observer) progressFault() {
	if o == nil {
		return
	}
	o.Progress.Fault()
}

func (o *Observer) progressLatched() {
	if o == nil {
		return
	}
	o.Progress.Latched()
}

// observeRunFinish records a completed timing run in the log and registry.
func (o *Observer) observeRunFinish(res *Result, fp string, dur time.Duration) {
	if o == nil {
		return
	}
	o.emit(telemetry.Event{
		Type:        "run_finish",
		Bench:       res.Bench,
		Fingerprint: fp,
		Cycles:      res.Cycles(),
		Committed:   res.Pipe.Committed,
		IPC:         res.IPC(),
		DurMS:       float64(dur) / float64(time.Millisecond),
	})
	o.count("svf_sim_runs_total", 1)
	o.count("svf_sim_cycles_total", res.Cycles())
	o.count("svf_sim_insts_total", res.Pipe.Committed)
}

// served reports a cache request served without execution — a hit on a
// completed entry (restored when the journal replay seeded it) or a join
// of an in-flight simulation — as an event and registry counts, and, when
// the request's context carries a trace, as a zero-width span named by how
// it was served: journal.replay (the restart path's provenance marker),
// cache.join or cache.hit. Only called with an observer attached.
func (c *RunCache) served(ctx context.Context, bench, key string, shared, restored bool) {
	o := c.obs
	ev := telemetry.Event{Type: "cache_hit", Bench: bench, Key: key, Fingerprint: shortKey(key)}
	span := "cache.hit"
	switch {
	case restored:
		ev.Type, span = "cache_restore", "journal.replay"
		o.count("svf_cache_restored_hits_total", 1)
	case shared:
		ev.Detail, span = "joined in-flight simulation", "cache.join"
	}
	o.emit(ev)
	o.count("svf_cache_hits_total", 1)
	if sp := o.tracer().StartSpan(telemetry.SpanFromContext(ctx), span); sp != nil {
		sp.SetAttr("bench", bench)
		sp.SetAttr("key", key)
		sp.End()
	}
}
