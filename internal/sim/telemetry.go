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

// serveSpan records a zero-width span for a cache request served without
// execution, named by how it was served: journal.replay (a journal-seeded
// entry — the restart path's provenance marker), cache.join (joined an
// in-flight simulation) or cache.hit. No-op when tracing is off or the
// context carries no trace.
func (c *RunCache) serveSpan(ctx context.Context, bench, key string, shared, restored bool) {
	tr := c.obs.tracer()
	if tr == nil {
		return
	}
	name := "cache.hit"
	switch {
	case restored:
		name = "journal.replay"
	case shared:
		name = "cache.join"
	}
	sp := tr.StartSpan(telemetry.SpanFromContext(ctx), name)
	if sp == nil {
		return
	}
	sp.SetAttr("bench", bench)
	if key != "" {
		sp.SetAttr("key", key)
	}
	sp.End()
}

// serveEvent reports a cache request served without execution: a hit on a
// completed entry (restored = journal-seeded) or a join of an in-flight
// simulation.
func (o *Observer) serveEvent(bench, key, fp string, shared, restored bool) {
	if o == nil {
		return
	}
	typ := "cache_hit"
	detail := ""
	switch {
	case restored:
		typ = "cache_restore"
		o.count("svf_cache_restored_hits_total", 1)
	case shared:
		detail = "joined in-flight simulation"
	}
	o.emit(telemetry.Event{Type: typ, Bench: bench, Key: key, Fingerprint: fp, Detail: detail})
	o.count("svf_cache_hits_total", 1)
}
