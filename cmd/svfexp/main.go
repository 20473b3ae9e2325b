// Command svfexp reproduces the paper's tables and figures.
//
// Usage:
//
//	svfexp -exp all                 # every core experiment
//	svfexp -exp fig5,table3         # a subset
//	svfexp -exp fig7 -insts 1000000 # bigger timing budget
//	svfexp -exp all,scorecard -cache-stats
//
// Experiments: table1 table2 fig1 fig2 fig3 fig5 fig6 fig7 fig8 fig9
// table3 table4, plus the opt-in extensions sweep, x86, rse, scorecard,
// famperf and famtraffic (run by name; "all" covers only the paper's own
// tables and figures). famperf/famtraffic evaluate the four stack-stress
// workload families (vm.stack, recurse.deep, coro.switch, alloca.dyn) the
// way Figure 9 and Tables 3/4 evaluate SPEC.
//
// All simulations flow through a shared run cache keyed by workload
// contents and canonical machine options, so identical configurations —
// within one figure, across figures, or between a figure and the scorecard
// — simulate exactly once; -cache-stats prints the hit/miss/dedup summary.
//
// Runs are supervised (see DESIGN.md, "Fault domains and supervision"):
// a simulator panic or deadlock is contained to its cell and reported as a
// typed fault rather than crashing the process. A faulted cell is retried
// after a seeded backoff, -retries times, and then latched: the rest of
// the suite is refused that cell instead of re-running it. -on-fault picks
// the policy: "continue" (the default) records the fault, renders the cell
// as "n/a" and finishes the suite with exit status 0; "fail" cancels the
// remaining work in that experiment and exits 1. -run-timeout bounds each
// individual simulation; Ctrl-C (SIGINT) or SIGTERM cancels the whole
// suite promptly and exits 130. -inject enables deterministic fault
// injection (e.g. -inject "bench=186.crafty.ref,panic=5000") for
// supervision testing; its spec grammar is documented in
// svf/internal/faultinject. A fault summary — fingerprint, benchmark,
// cycle — is printed to stderr after a degraded suite; a clean suite
// prints none.
//
// Campaigns survive process death with -journal <dir>: every completed
// cell is appended to a crash-safe on-disk journal (see DESIGN.md §5d),
// and a later invocation with -resume restores those cells from disk and
// re-executes only what is missing, reporting restored vs re-executed
// counts. The journal also keeps the retry state: a faulted cell's
// attempts count against -retries across resumes, and a latched cell stays
// latched. Ctrl-C/SIGTERM flushes the journal before exiting 130, so an
// interrupted sweep resumes where it stopped.
// Fault-injected runs bypass the journal exactly as they bypass the run
// cache; the journal-level plans (kill-mid-write, journal-torn-tail)
// instead crash the journal itself deterministically, for recovery drills.
//
// Sharded campaigns (-workers N, DESIGN.md §5g) farm every simulation out
// to N supervised worker processes (this binary re-exec'd with -worker)
// over a length-prefixed pipe protocol. Cells are held under 30-second
// leases with heartbeats every 7.5 s: a worker that crashes, is kill
// -9'd, or wedges past its lease has the cell reclaimed and re-enqueued
// under the same -retries budget, and a cell that kills 3 distinct workers
// is quarantined as a poison cell (latched permanently) instead of
// crash-looping the fleet. Results are
// byte-identical to an in-process run. Combine with -journal/-resume for
// crash tolerance of the coordinator itself; workers never open the
// journal. -cache-stats adds a one-line fleet summary (deaths, lease
// expiries, re-enqueues, quarantines), which /progress mirrors live. The
// faultinject plans worker-kill=N / worker-stall=N kill or wedge the
// worker holding the Nth assignment, for chaos drills.
//
// Telemetry (DESIGN.md §5e) is off unless asked for, and strictly
// observational — results are bit-identical either way. The run cache and
// the shard pool report into one sim.Observer. -events FILE appends
// machine-tailable NDJSON lifecycle events (run start/finish, cache
// hit/restore, fault, retry, backoff, journal flush/restore).
// -obs-addr HOST:PORT serves Prometheus-text /metrics, JSON /progress
// (done/total, ETA, fault and latch counts) and /debug/pprof for live
// sweeps; ":0" picks an ephemeral port, reported as "obs: listening on
// ADDR", and -obs-linger keeps the listener up after the suite so
// scripts can scrape a finished campaign. -trace-perfetto FILE runs one
// extra diagnostic simulation (-trace-bench under the Figure 5 infinite-
// SVF configuration, -trace-insts instructions) and writes its per-stage
// instruction timeline as Chrome trace-event JSON for the Perfetto UI.
// When any of these are active, the suite also prints a one-line
// telemetry summary next to -cache-stats — on clean, faulted and
// interrupted exits alike.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"svf/internal/experiments"
	"svf/internal/faultinject"
	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/shard"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

func main() { os.Exit(run()) }

// run holds the real main body; returning instead of os.Exit lets the
// -cpuprofile / -memprofile defers flush even on a failing suite.
func run() int {
	exp := flag.String("exp", "all", "comma-separated experiments (table1, table2, fig1..fig9, table3, table4, sweep, x86, rse, scorecard, famperf, famtraffic, all)")
	insts := flag.Int("insts", 400_000, "instruction budget per timing run")
	traffic := flag.Int("traffic", 2_000_000, "instruction budget per traffic run")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	svgDir := flag.String("svg", "", "also render each figure as an SVG file into this directory")
	htmlOut := flag.String("html", "", "write a single self-contained HTML report to this file")
	cacheStats := flag.Bool("cache-stats", false, "print the shared run cache's hit/miss/dedup summary after the suite")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the suite) to this file")
	runTimeout := flag.Duration("run-timeout", 0, "deadline per individual simulation run (0 = none)")
	onFault := flag.String("on-fault", "continue", `simulation-fault policy: "continue" renders failed cells as gaps, "fail" aborts the experiment`)
	inject := flag.String("inject", "", `deterministic fault-injection spec, e.g. "bench=186.crafty.ref,panic=5000" (see svf/internal/faultinject)`)
	journalDir := flag.String("journal", "", "directory for the crash-safe campaign journal; completed cells persist across process death")
	resume := flag.Bool("resume", false, "restore the -journal's completed cells instead of starting a fresh campaign")
	retries := flag.Int("retries", 1, "re-executions allowed per faulted cell (across resumes) before it is latched as permanently failed")
	eventsPath := flag.String("events", "", "write structured NDJSON run-lifecycle events to this file (see DESIGN.md §5e)")
	obsAddr := flag.String("obs-addr", "", `HTTP observability listener ("127.0.0.1:0" for an ephemeral port): /metrics, /progress, /debug/pprof`)
	obsLinger := flag.Duration("obs-linger", 0, "keep the -obs-addr listener serving this long after the suite finishes")
	tracePerfetto := flag.String("trace-perfetto", "", "write a Chrome trace-event / Perfetto JSON stage timeline of one diagnostic run to this file")
	traceBench := flag.String("trace-bench", "186.crafty.ref", "benchmark for the -trace-perfetto diagnostic run")
	traceInsts := flag.Int("trace-insts", 20_000, "instruction budget for the -trace-perfetto diagnostic run")
	traceCacheMB := flag.Int64("trace-cache-mb", sim.DefaultTraceCacheBytes>>20, "memory budget (MiB) for the recorded-trace cache; 0 disables trace recording")
	workers := flag.Int("workers", 0, "shard the campaign across this many supervised worker processes (0 = simulate in-process)")
	workerMode := flag.Bool("worker", false, "run as a shard worker speaking frames over stdin/stdout (internal; spawned by -workers)")
	flag.Parse()
	sim.SetTraceCacheBudget(*traceCacheMB << 20)

	policy, err := experiments.ParseFaultPolicy(*onFault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfexp: -on-fault: %v\n", err)
		return 2
	}
	plan, err := faultinject.Parse(*inject)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfexp: -inject: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		// Worker processes are stateless executors: stdin/stdout carry
		// protocol frames (nothing else may print to stdout), and they
		// must never open the coordinator's journal — the journal's
		// advisory flock would refuse anyway, but refusing the flag makes
		// the mistake a clear usage error instead of a lock fight.
		if *journalDir != "" {
			fmt.Fprintln(os.Stderr, "svfexp: -worker: workers must not open the campaign journal (-journal belongs to the coordinator)")
			return 2
		}
		w := &shard.Worker{In: os.Stdin, Out: os.Stdout}
		if err := w.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: worker: %v\n", err)
			return 1
		}
		return 0
	}

	// Telemetry sinks. The event log and the metrics registry/progress
	// tracker are independent: -events alone still aggregates counters for
	// the end-of-run summary, -obs-addr alone still serves /metrics with no
	// log on disk. Everything here is nil when the flags are absent, and
	// every downstream layer treats nil as "off". The run cache and the
	// shard pool report into one Observer holding all four.
	var (
		events    *telemetry.EventLog
		registry  *telemetry.Registry
		progress  *telemetry.Progress
		suiteTime = time.Now()
	)
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -events: %v\n", err)
			return 2
		}
		events = telemetry.NewEventLog(f)
		defer events.Close()
	}
	telemetryOn := *eventsPath != "" || *obsAddr != ""
	var tracer *telemetry.Tracer
	var campaignSpan *telemetry.ActiveSpan
	if telemetryOn {
		registry = telemetry.NewRegistry()
		progress = telemetry.NewProgress()
		// The campaign is one trace: a root span whose context rides the
		// suite ctx into every cache call, so sharded cells record
		// lease/worker spans and the event log carries span_end records.
		tracer = telemetry.NewTracer()
		tracer.SetEvents(events)
		// Unlike job traces (minted from the content fingerprint so journal
		// replay continues the same trace), a campaign trace has nothing to
		// resume — mint it per run, mixing in PID and start time, so
		// re-running the identical command line does not conflate two runs'
		// span_end events under one trace ID in an appended events log.
		campaignTrace := telemetry.MintTraceID(fmt.Sprintf(
			"svf-campaign|%d|%d|%s", os.Getpid(), suiteTime.UnixNano(), strings.Join(os.Args[1:], " ")))
		campaignSpan = tracer.StartSpan(telemetry.SpanContext{Trace: campaignTrace}, "campaign")
		ctx = telemetry.ContextWithSpan(ctx, campaignSpan.Context())
	}
	if *obsAddr != "" {
		srv := &telemetry.Server{Registry: registry, Progress: progress}
		addr, err := srv.Listen(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -obs-addr: %v\n", err)
			return 2
		}
		defer srv.Close()
		// Scripts (and the CI smoke test) discover the ephemeral port from
		// this line.
		fmt.Printf("obs: listening on %s\n", addr)
	}
	obs := &sim.Observer{Events: events, Registry: registry, Progress: progress, Tracer: tracer}
	events.Emit(telemetry.Event{Type: "campaign_start", Detail: strings.Join(os.Args[1:], " ")})

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svfexp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "svfexp: -memprofile: %v\n", err)
			}
		}()
	}

	var report experiments.ReportBuilder

	// writeSVG records the chart in the report and, with -svg, renders it
	// to disk. It returns rather than exits on failure so one bad write
	// cannot abort a half-finished suite.
	writeSVG := func(c experiments.ChartSVG) error {
		report.AddChart(c)
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*svgDir, c.Name)
		if err := os.WriteFile(path, []byte(c.SVG), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	cache := sim.SharedCache()
	faults := experiments.NewFaultLog()
	var jr *journal.Journal
	var restored sim.RestoreStats
	if *journalDir != "" {
		jopts := journal.Options{
			Inject: plan,
			// An injected journal crash must look like process death:
			// exit with SIGKILL's conventional status, skipping every
			// cleanup path, so recovery drills rehearse the real thing.
			OnCrash: func() { os.Exit(137) },
		}
		if events != nil {
			jopts.OnSync = func(appends, syncBatches uint64) {
				events.Emit(telemetry.Event{Type: "journal_flush", Records: appends, SyncBatches: syncBatches})
			}
		}
		j, rep, err := journal.Open(*journalDir, jopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -journal: %v\n", err)
			return 2
		}
		defer j.Close()
		if !*resume && len(rep.Records) > 0 {
			fmt.Fprintf(os.Stderr, "svfexp: -journal: %s already holds %d record(s); pass -resume to continue the campaign, or remove the directory to start over\n",
				*journalDir, len(rep.Records))
			return 2
		}
		jr = j
		cache, restored = sim.NewRunCacheWithJournal(j, rep)
		if *resume {
			fmt.Printf("journal: %s\n", restored)
		}
		// Latched cells were reported in their own session; replaying
		// them into the fault log keeps this run's summary complete.
		for _, err := range cache.RestoredFaults() {
			faults.AddReplayed(err)
		}
	}
	var pool *shard.Pool
	if *workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -workers: %v\n", err)
			return 1
		}
		pool, err = shard.NewPool(shard.Config{
			Workers: *workers,
			Plan:    plan,
			Spawn:   shard.CommandSpawner(exe, "-worker", fmt.Sprintf("-trace-cache-mb=%d", *traceCacheMB)),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "svfexp: "+format+"\n", args...)
			},
			Obs: obs,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -workers: %v\n", err)
			return 1
		}
		defer pool.Close()
		cache.SetExecutor(pool)
		progress.SetShard(pool.Status)
		if *parallel == 0 {
			// Saturate the fleet: the dispatcher goroutines only wait on
			// workers, so one per worker is the natural default.
			*parallel = *workers
		}
	}
	cache.SetRetries(*retries)
	// Attached after the journal restore so the observer's opening
	// journal_restore event reflects what actually came back from disk.
	cache.SetObserver(obs)
	cfg := experiments.Config{
		MaxInsts: *insts, TrafficInsts: *traffic, Parallel: *parallel, Cache: cache,
		Ctx: ctx, RunTimeout: *runTimeout, OnFault: policy, Faults: faults, Inject: plan,
		Progress: progress,
	}

	ran, failed := 0, 0
	for _, e := range selectExperiments(*exp) {
		if ctx.Err() != nil {
			break // interrupted: skip straight to the summaries
		}
		start := time.Now()
		events.Emit(telemetry.Event{Type: "experiment_start", Experiment: e.name})
		out, err := e.execute(cfg, writeSVG)
		fin := telemetry.Event{Type: "experiment_finish", Experiment: e.name,
			DurMS: float64(time.Since(start)) / float64(time.Millisecond)}
		if err != nil {
			// Keep going: a failed experiment (or SVG write) must not
			// discard the results of the rest of the suite.
			fmt.Fprintf(os.Stderr, "svfexp: %s: %v\n", e.name, err)
			failed++
			fin.Err = err.Error()
		}
		events.Emit(fin)
		if out != nil {
			fmt.Printf("=== %s (%s, %.1fs) ===\n%s\n", e.name, e.title, time.Since(start).Seconds(), out)
			report.AddSection(e.title, out.String())
			ran++
		}
	}
	if ran == 0 && failed == 0 && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "svfexp: no experiment matched %q\n", *exp)
		return 2
	}
	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(report.Render()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s\n", *htmlOut)
		}
	}
	if *tracePerfetto != "" && ctx.Err() == nil {
		if err := writePerfettoTrace(ctx, *tracePerfetto, *traceBench, *traceInsts, registry, events); err != nil {
			fmt.Fprintf(os.Stderr, "svfexp: -trace-perfetto: %v\n", err)
			failed++
		}
	}

	// The post-suite accounting prints on every exit path from here on —
	// clean, degraded and interrupted alike — so a Ctrl-C cannot lose the
	// counters the journal worked to keep exact.
	if *cacheStats {
		fmt.Println(cache.Stats())
	}
	if pool != nil && *cacheStats {
		fmt.Println(pool.Status())
	}
	if telemetryOn {
		fmt.Println(telemetrySummary(registry, progress))
	}
	if jr != nil {
		st := cache.Stats()
		js := jr.Stats()
		fmt.Printf("journal: %d cell(s) restored from disk, %d re-executed this run; %d record(s) appended (%d fsync batches)\n",
			restored.Restored(), st.Misses, js.Appends, js.SyncBatches)
	}
	if s := faults.Summary(); s != "" {
		fmt.Fprint(os.Stderr, "svfexp: "+s)
	}
	if ctx.Err() != nil {
		events.Emit(telemetry.Event{Type: "interrupt", Detail: "suite cancelled by signal"})
	}
	campaignSpan.End()
	events.Emit(telemetry.Event{Type: "campaign_finish",
		DurMS:  float64(time.Since(suiteTime)) / float64(time.Millisecond),
		Detail: fmt.Sprintf("%d experiment(s) ran, %d failed", ran, failed)})
	if err := events.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "svfexp: -events: %v\n", err)
	}
	if ctx.Err() != nil {
		if jr != nil {
			jr.Close() // flush now: the journal must be durable before we report the interrupt
			fmt.Fprintf(os.Stderr, "svfexp: interrupted (journal flushed; continue with -journal %s -resume)\n", *journalDir)
		} else {
			fmt.Fprintln(os.Stderr, "svfexp: interrupted")
		}
		return 130
	}
	if *obsAddr != "" && *obsLinger > 0 {
		// Hold the listener up so scripts can scrape a finished campaign's
		// /metrics and /progress; Ctrl-C ends the linger early without
		// turning a completed suite into exit 130.
		fmt.Printf("obs: serving for another %s (Ctrl-C to stop)\n", *obsLinger)
		select {
		case <-time.After(*obsLinger):
		case <-ctx.Done():
		}
	}
	if failed > 0 {
		return 1
	}
	// Contained faults under -on-fault=continue degrade cells to gaps but do
	// not fail the suite; they were reported above.
	return 0
}

// telemetrySummary renders the one-line end-of-run digest of the metrics
// registry and progress tracker (printed whenever telemetry is enabled).
func telemetrySummary(reg *telemetry.Registry, prog *telemetry.Progress) string {
	v := func(name string) uint64 { return reg.Counter(name).Load() }
	snap := prog.Snapshot()
	return fmt.Sprintf("telemetry: %d/%d cell(s) done in %.1fs; %d run(s) simulated (%d cycles, %d insts), %d cache hit(s) (%d restored), %d fault(s), %d retried, %d latched",
		snap.Done, snap.Total, snap.ElapsedSec,
		v("svf_sim_runs_total"), v("svf_sim_cycles_total"), v("svf_sim_insts_total"),
		v("svf_cache_hits_total"), v("svf_cache_restored_hits_total"),
		v("svf_sim_run_faults_total"), v("svf_sim_retries_total"), snap.Latched)
}

// writePerfettoTrace runs one extra diagnostic simulation — the named
// benchmark under the Figure 5 configuration (16-wide, infinite SVF,
// perfect front end) — with the per-stage trace enabled, and writes the
// timeline as Chrome trace-event JSON the Perfetto UI loads directly.
func writePerfettoTrace(ctx context.Context, path, bench string, insts int, reg *telemetry.Registry, events *telemetry.EventLog) error {
	prof := synth.ByName(bench)
	if prof == nil {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	tr := telemetry.NewPipelineTrace()
	probe := telemetry.NewProbe(reg)
	probe.Trace = tr
	res, err := sim.RunContext(ctx, prof, sim.Options{
		Machine: pipeline.SixteenWide(), Policy: pipeline.PolicySVF, SVFInfinite: true,
		MaxInsts: insts, Probe: probe,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	events.Emit(telemetry.Event{Type: "trace_written", Bench: res.Bench, Detail: path,
		Cycles: res.Cycles(), Committed: res.Pipe.Committed, Records: uint64(tr.Events())})
	fmt.Printf("wrote %s (%d trace events, %d dropped)\n", path, tr.Events(), tr.Dropped())
	return nil
}
