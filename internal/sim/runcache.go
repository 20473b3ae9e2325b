package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/stats"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// RunCache memoizes complete simulation runs. A cell is keyed by its cell
// key (RunCellKey, TrafficCellKey): the content fingerprint of the workload
// profile (not its ID — see Profile.Fingerprint) and the canonicalized
// Options, so two requests hit the same entry exactly when they would
// simulate the same machine on the same workload. The key is derived once
// per request and is the cell's only identity: the single-flight entry,
// the store's gate and the journal record use it, and faults and events
// carry its short form. Concurrent requests for one key share a single
// in-flight simulation (single-flight deduplication); later requests are
// served from the cache.
//
// The experiment harnesses route every timing run, traffic run and
// characterisation pass through one RunCache (experiments.Config.Cache), so
// a suite such as `svfexp -exp all,scorecard` executes each unique
// (profile, options) pair exactly once: the scorecard reuses the Figure
// 5/7/8/9 and Table 4 runs, and specs shared between figures (Figure 7's
// 2+0/2+1/2+2 points are byte-identical to Figure 9's) simulate once.
//
// Failure policy: faults are never cached. A failed execution's entry is
// dropped, and when the failure is a contained *Fault the cache re-executes
// (bounded retry, SetRetries; default once) before declaring the run failed
// — a transient fault costs extra simulations, a deterministic one exhausts
// the budget and is reported. Fault-injected runs (Options.FaultPlan
// matching the workload) bypass the cache entirely, so an injected result
// can never be cached for — or served to — a clean request.
//
// A cache built with NewRunCacheWithJournal additionally persists every
// completed cell to an on-disk journal and starts warm from the journal's
// replay, so sweeps survive process death: completed cells are served from
// disk, faulted cells re-execute with their prior attempts counted against
// the retry budget (with capped, seeded-jitter exponential backoff), and
// cells whose budget is exhausted are latched as permanently failed.
//
// Results accumulate for the cache's lifetime; use a fresh cache per sweep
// when memory matters more than reuse.
type RunCache struct {
	runs    flightGroup[string, *Result]    // keyed by RunCellKey
	traffic flightGroup[string, trafficVal] // keyed by TrafficCellKey
	char    flightGroup[charKey, *synth.Characterization]
	cnt     cacheCounters

	// exec executes cache misses: in process unless SetExecutor installed
	// another (the shard coordinator's worker pool, a test stub).
	exec Executor

	// store is the cell state (nil for a plain NewRunCache) and restore
	// what a journal replay put back. See store.go/journal.go.
	store   *cellStore
	restore RestoreStats

	// obs is the attached telemetry observer, nil when observability is
	// off (see SetObserver; every Observer helper is nil-safe).
	obs *Observer

	// retries is the per-cell re-execution budget after the first
	// failure; retriesSet distinguishes an explicit 0 from the default.
	retries    int
	retriesSet bool

	// Backoff policy for retries of cells with a store (journal.go).
	backoffBase, backoffCap time.Duration
	backoffSeed             int64
	sleep                   func(context.Context, time.Duration) error
}

// cacheCounters are the cache's event counters. Every counter is atomic:
// the single-flight path bumps them from whichever caller goroutine
// executes or joins a cell, so `-cache-stats` stays exact under arbitrary
// concurrency (see TestRunCacheCountersExactUnderConcurrency).
type cacheCounters struct {
	hits     atomic.Uint64 // served from a completed entry
	shared   atomic.Uint64 // joined an in-flight simulation
	misses   atomic.Uint64 // simulations actually executed
	errors   atomic.Uint64 // execution attempts that failed (entry dropped)
	retries  atomic.Uint64 // bounded re-executions after a contained fault
	latched  atomic.Uint64 // requests refused because the cell is latched permanently failed
	simNanos atomic.Uint64 // wall-clock nanoseconds spent executing
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache { return &RunCache{exec: localExecutor{}} }

// sharedCache is the process-wide default used by experiments.Config.
var sharedCache = NewRunCache()

// SharedCache returns the process-wide cache that experiment harnesses use
// by default, so separate harnesses in one invocation reuse each other's
// runs.
func SharedCache() *RunCache { return sharedCache }

// Canonical returns opt with defaults filled and presentation-only state
// normalised, so equivalent configurations compare equal as cache keys: the
// machine's display Name is dropped, the DL1Ports override is cleared
// after fillDefaults has folded it into Machine.DL1Ports, any FaultPlan
// is cleared (injected runs never reach the cache's key space — see Run),
// and any Probe is cleared (instrumentation must never affect a cache key
// or fingerprint).
func Canonical(opt Options) Options {
	opt.fillDefaults()
	opt.Machine.Name = ""
	opt.DL1Ports = 0
	opt.FaultPlan = nil
	opt.Probe = nil
	return opt
}

// cacheExec runs fn under the cache's bounded-retry supervision: a
// contained *Fault is re-executed until the attempt budget (SetRetries+1
// total executions) is spent, then reported. Cancellation and configuration
// errors are never retried — they would fail identically. An error carrying
// the PermanentFaulter marker (a poison cell quarantined by the shard
// coordinator) is latched immediately, budget or not. Every failed attempt
// counts in cnt.errors; every re-execution in cnt.retries.
//
// When the cache has a store and key is non-empty, supervision spans the
// store's lifetime (with a journal: across process death): prior attempts
// count against the budget, each retry waits out the cell's seeded
// exponential backoff, every failure is recorded as a fault (the final one
// latched permanent), and a success clears the cell's fault state. With a
// journal, the success is also appended, encoded by record, so a later
// process restores it.
func cacheExec[V any](ctx context.Context, c *RunCache, key, bench string, fn func(context.Context) (V, error), record func(V) (journal.Record, error)) (V, error) {
	stored := c.store != nil && key != ""
	budget := c.attemptBudget()
	// Each execution attempt gets its own span (worker.run for the first,
	// retry for re-executions) parented to whatever span rides the caller's
	// context — the service's cell span, or nothing. StartSpan returns nil
	// when tracing is off or the context carries no trace, and every span
	// method on nil is a no-op, so the disabled path allocates nothing.
	sc := telemetry.SpanFromContext(ctx)
	tr := c.obs.tracer()
	var attempts uint32
	if stored {
		if attempts = c.store.PriorAttempts(key); attempts >= budget {
			// A pending (non-permanent) fault record always owes the
			// cell one more execution, even if -retries shrank.
			attempts = budget - 1
		}
	}
	for {
		if attempts > 0 {
			// This execution is a retry — of a failure earlier in this
			// loop, or of a fault replayed from the store.
			if stored {
				if err := c.sleepBackoff(ctx, key, attempts); err != nil {
					var zero V
					return zero, err
				}
			}
			c.cnt.retries.Add(1)
			c.obs.emit(telemetry.Event{Type: "retry", Bench: bench, Key: key, Attempt: attempts + 1})
			c.obs.count("svf_sim_retries_total", 1)
		}
		name := "worker.run"
		if attempts > 0 {
			name = "retry"
		}
		sp := tr.StartSpan(sc, name)
		if sp != nil {
			sp.SetAttr("bench", bench)
			sp.SetAttr("attempt", fmt.Sprint(attempts+1))
		}
		v, err := fn(telemetry.ContextWithSpan(ctx, sp.Context()))
		if sp != nil {
			outcome := "ok"
			if err != nil {
				outcome = "fault"
			}
			sp.SetAttr("outcome", outcome)
			sp.End()
		}
		if err == nil {
			if stored {
				c.store.Put(key, func() (journal.Record, error) { return record(v) })
			}
			return v, nil
		}
		c.cnt.errors.Add(1)
		poison := IsPermanentFault(err)
		var f *Fault
		if (!errors.As(err, &f) && !poison) || ctx.Err() != nil {
			return v, err
		}
		attempts++
		permanent := attempts >= budget || poison
		ev := telemetry.Event{
			Type: "run_fault", Bench: bench, Key: key,
			Attempt: attempts, Err: err.Error(),
		}
		if f != nil {
			ev.Fingerprint, ev.Cycles, ev.Committed = f.Fingerprint, f.Cycle, f.Committed
		}
		c.obs.emit(ev)
		c.obs.count("svf_sim_run_faults_total", 1)
		c.obs.progressFault()
		if stored {
			c.store.Fault(key, bench, attempts, permanent, err)
		}
		if permanent {
			// A latched cell is visible in the trace as a zero-width
			// quarantine span alongside the failed attempt.
			if qsp := tr.StartSpan(sc, "quarantine"); qsp != nil {
				qsp.SetAttr("bench", bench)
				qsp.SetAttr("attempt", fmt.Sprint(attempts))
				if poison {
					qsp.SetAttr("poison", "true")
				}
				qsp.End()
			}
			c.obs.emit(telemetry.Event{Type: "latched", Bench: bench, Key: key, Attempt: attempts, Err: err.Error()})
			c.obs.progressLatched()
			return v, err
		}
	}
}

// Run returns the memoized Result of RunContext(ctx, prof, opt), executing
// the simulation at most once per unique (profile contents, canonical
// options) pair. Runs with an active FaultPlan matching the profile execute
// outside the cache (and without retry — injection is deterministic). The
// returned Result is a private copy; callers may modify it.
func (c *RunCache) Run(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pfp, canon := prof.Fingerprint(), Canonical(opt)
	key := runCellKey(pfp, canon)
	execRun := func(ctx context.Context) (*Result, error) {
		o, fp := opt, ""
		if c.obs != nil {
			fp = shortKey(key)
			// With a registry attached, every executed run carries a
			// probe mirroring into it, so /metrics aggregates occupancy
			// across the whole sweep. The key was derived without it.
			if o.Probe == nil && c.obs.Registry != nil {
				o.Probe = telemetry.NewProbe(c.obs.Registry)
			}
		}
		c.obs.emit(telemetry.Event{Type: "run_start", Bench: prof.ID(), Fingerprint: fp})
		start := time.Now()
		res, err := c.exec.ExecRun(ctx, prof, o)
		if err == nil {
			c.obs.observeRunFinish(res, fp, time.Since(start))
		}
		return res, err
	}
	if opt.FaultPlan.Active() && opt.FaultPlan.Matches(prof.ID()) {
		c.cnt.misses.Add(1)
		start := time.Now()
		res, err := execRun(ctx)
		c.cnt.simNanos.Add(uint64(time.Since(start)))
		if err != nil {
			c.cnt.errors.Add(1)
			c.obs.count("svf_sim_run_faults_total", 1)
			c.obs.progressFault()
		}
		return res, err
	}
	res, err := request(ctx, c, &c.runs, recKindRun, prof.ID(), key, execRun, func(r *Result) any {
		return runPayload{Prof: pfp, Opt: canon, Res: r}
	})
	return cloneResult(res), err
}

type trafficVal struct{ in, out, ctx uint64 }

// Traffic returns the memoized result of TrafficOnly.
func (c *RunCache) Traffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pfp := prof.Fingerprint()
	key := trafficCellKey(pfp, policy, sizeBytes, maxInsts, ctxPeriod)
	v, err := request(ctx, c, &c.traffic, recKindTraffic, prof.ID(), key, func(ctx context.Context) (trafficVal, error) {
		in, out, cb, err := c.exec.ExecTraffic(ctx, prof, policy, sizeBytes, maxInsts, ctxPeriod)
		return trafficVal{in, out, cb}, err
	}, func(v trafficVal) any {
		return trafficPayload{
			Prof: pfp, Policy: policy, SizeBytes: sizeBytes, MaxInsts: maxInsts, CtxPeriod: ctxPeriod,
			In: v.in, Out: v.out, CtxBytes: v.ctx,
		}
	})
	return v.in, v.out, v.ctx, err
}

// request is the one request path of a journaled cell, shared by Run and
// Traffic: the store's gate and its latched refusal, the serve hook, the
// single flight and the supervised execution. The kinds differ only in
// exec, which executes a miss, and payload, which gives the JSON body of a
// completed cell's journal record. key is the cell key the caller derived
// once.
func request[V any](ctx context.Context, c *RunCache, g *flightGroup[string, V], kind, bench, key string, exec func(context.Context) (V, error), payload func(V) any) (V, error) {
	if c.store != nil {
		if err := c.store.Gate(key, c.attemptBudget()); err != nil {
			c.cnt.latched.Add(1)
			c.obs.emit(telemetry.Event{Type: "latched", Bench: bench, Key: key, Err: err.Error(), Detail: "refused without execution"})
			var zero V
			return zero, err
		}
	}
	var onServe func(shared, restored bool)
	if c.obs != nil {
		onServe = func(shared, restored bool) { c.served(ctx, bench, key, shared, restored) }
	}
	return g.do(ctx, key, &c.cnt, onServe, func() (V, error) {
		return cacheExec(ctx, c, key, bench, exec, func(v V) (journal.Record, error) {
			data, err := json.Marshal(payload(v))
			return journal.Record{Kind: kind, Key: key, Data: data}, err
		})
	})
}

// charKey identifies one unique characterisation pass.
type charKey struct {
	prof     string
	maxInsts int
}

// Characterize returns the memoized functional characterisation of a
// profile over maxInsts instructions — Figures 1-3 all consume the same
// pass. The returned Characterization is shared between callers and must be
// treated as read-only.
func (c *RunCache) Characterize(ctx context.Context, prof *synth.Profile, maxInsts int) (*synth.Characterization, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := charKey{prof.Fingerprint(), maxInsts}
	return c.char.do(ctx, key, &c.cnt, nil, func() (*synth.Characterization, error) {
		// Characterisations are not journaled (empty key): cheap,
		// deterministic functional passes that simply recompute on resume.
		return cacheExec(ctx, c, "", prof.ID(), func(context.Context) (*synth.Characterization, error) {
			prog, err := ProgramFor(prof)
			if err != nil {
				return nil, err
			}
			return synth.Characterize(cachedStream(prog, prof.Fingerprint(), maxInsts), prog.Layout, maxInsts), nil
		}, nil)
	})
}

// cloneResult returns a shallow copy deep enough that callers mutating the
// returned Result (including its per-structure stat blocks) cannot corrupt
// the cached entry.
func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	cp := *r
	if r.SVF != nil {
		s := *r.SVF
		cp.SVF = &s
	}
	if r.SC != nil {
		s := *r.SC
		cp.SC = &s
	}
	if r.RSE != nil {
		s := *r.RSE
		cp.RSE = &s
	}
	return &cp
}

// CacheStats is a point-in-time summary of a RunCache.
type CacheStats struct {
	// Hits counts requests served from a completed entry; Shared counts
	// requests that joined a simulation already in flight; Misses counts
	// simulations actually executed.
	Hits, Shared, Misses uint64
	// Errors counts execution attempts that failed; failed entries are
	// dropped so a later request re-executes. Retries counts the bounded
	// re-executions taken after a contained fault (each retry that fails
	// again also counts in Errors).
	Errors, Retries uint64
	// Latched counts requests refused without execution because the
	// journal has the cell latched as permanently failed.
	Latched uint64
	// Entries is the number of resident results across all three kinds
	// (timing runs, traffic runs, characterisations).
	Entries int
	// SimTime is the cumulative wall-clock time spent inside executions
	// (what the Hits and Shared requests did not have to pay again).
	SimTime time.Duration
}

// Stats snapshots the cache's counters.
func (c *RunCache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.cnt.hits.Load(),
		Shared:  c.cnt.shared.Load(),
		Misses:  c.cnt.misses.Load(),
		Errors:  c.cnt.errors.Load(),
		Retries: c.cnt.retries.Load(),
		Latched: c.cnt.latched.Load(),
		Entries: c.runs.len() + c.traffic.len() + c.char.len(),
		SimTime: time.Duration(c.cnt.simNanos.Load()),
	}
}

// Requests returns the total number of cache lookups.
func (s CacheStats) Requests() uint64 { return s.Hits + s.Shared + s.Misses }

// String renders the one-line summary printed by `svfexp -cache-stats`.
func (s CacheStats) String() string {
	out := fmt.Sprintf("run cache: %d requests → %d simulated, %d hits, %d deduped in flight, %d errors (%d retried); %d entries; %s simulating",
		s.Requests(), s.Misses, s.Hits, s.Shared, s.Errors, s.Retries, s.Entries, s.SimTime.Round(time.Millisecond))
	if s.Latched > 0 {
		out += fmt.Sprintf("; %d refused (latched permanent)", s.Latched)
	}
	return out
}

// Table renders the stats in the report-table form the experiment harnesses
// use everywhere else.
func (s CacheStats) Table() *stats.Table {
	t := stats.NewTable("requests", "simulated", "hits", "deduped", "errors", "retries", "latched", "entries", "sim time")
	t.AddRow(s.Requests(), s.Misses, s.Hits, s.Shared, s.Errors, s.Retries, s.Latched, s.Entries, s.SimTime.Round(time.Millisecond).String())
	return t
}

// flight is one single-flight slot: done closes when val/err are final.
// restored marks an entry seeded from a journal replay, so the telemetry
// layer can tell a disk-restored hit (cache_restore) from an ordinary
// in-memory one (cache_hit).
type flight[V any] struct {
	done     chan struct{}
	val      V
	err      error
	restored bool
}

// flightGroup is a memoizing single-flight map: concurrent callers of the
// same key share one execution, and every later caller gets the cached
// value without re-executing.
type flightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// do returns the value for key, joining an in-flight execution or starting
// fn, and bumps the matching counters. A caller waiting on someone else's
// in-flight execution stops waiting when its own context is cancelled (the
// execution itself keeps running for the caller that started it). onServe,
// when non-nil, is called for requests served without executing fn — a hit
// on a completed entry (shared=false; restored when the journal replay
// seeded it) or a join of an in-flight execution (shared=true) — which is
// where the telemetry layer hangs cache events.
func (g *flightGroup[K, V]) do(ctx context.Context, key K, cnt *cacheCounters, onServe func(shared, restored bool), fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	if f, ok := g.m[key]; ok {
		inFlight := true
		select {
		case <-f.done:
			inFlight = false
		default:
		}
		g.mu.Unlock()
		if inFlight {
			select {
			case <-f.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			cnt.shared.Add(1)
		} else {
			cnt.hits.Add(1)
		}
		if onServe != nil {
			onServe(inFlight, f.restored)
		}
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	cnt.misses.Add(1)
	start := time.Now()
	f.val, f.err = fn()
	cnt.simNanos.Add(uint64(time.Since(start)))
	if f.err != nil {
		// Failed runs are not cached: drop the entry so a later request
		// re-executes instead of replaying the error forever.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// len returns the number of resident entries.
func (g *flightGroup[K, V]) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// seed installs an already-completed entry marked restored (a cell
// replayed from the journal). Requests for it count as ordinary hits. An
// existing entry wins: a live execution is at least as fresh as a replayed
// record.
func (g *flightGroup[K, V]) seed(key K, val V) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	if _, ok := g.m[key]; ok {
		return
	}
	f := &flight[V]{done: make(chan struct{}), val: val, restored: true}
	close(f.done)
	g.m[key] = f
}
