// Command svfd is the simulation-as-a-service daemon (DESIGN.md §5h): a
// long-lived HTTP front end over the same run cache, journal, and
// lease-supervised shard pool the svfexp campaign runner uses.
//
// Clients POST job specs to /v1/jobs and get back a content-fingerprint
// job ID; GET /v1/jobs/{id} reports per-cell state (including the
// partial-failure report), GET /v1/jobs/{id}/results streams NDJSON
// results as cells finish, GET /v1/jobs/{id}/trace serves the job's
// span tree as Perfetto-loadable trace JSON, GET /v1/progress mirrors
// the campaign progress snapshot, and /healthz, /readyz, /metrics serve
// the usual operational endpoints. Admission is bounded: at most -max-jobs
// outstanding jobs and -max-queue-bytes of queued spec bytes; beyond
// either, submissions shed with 429 + Retry-After instead of growing
// without bound. Identical submissions coalesce onto one job.
//
// With -journal DIR the daemon is crash-tolerant: accepted jobs are
// journaled under DIR/jobs before the 202 is sent (the append fsyncs),
// and completed cells under DIR/cells through the run cache's journal. A
// kill -9'd daemon restarted on the same directory replays both —
// finished cells restore from disk, accepted-but-unfinished jobs re-run
// only their missing cells, and a subsequent results fetch is
// byte-identical to an uninterrupted one. Unlike svfexp there is no
// -resume flag: resuming is a daemon's normal startup.
//
// With -workers N cells execute on N supervised worker processes (this
// binary re-exec'd with -worker) exactly as in svfexp: 30-second leases,
// crash reclaim, and quarantine of a cell that kills 3 distinct workers. With or without a
// journal, a faulted cell is retried after a backoff, -retries times, and
// then latched for the daemon's lifetime. The service, the run cache and
// the shard pool report into one sim.Observer, whose registry serves
// /metrics and whose tracer serves the job traces. SIGTERM or SIGINT
// drains: admission flips to 503, in-flight jobs finish (bounded by
// -drain-timeout), journals flush, and the process exits 0.
//
// -inject accepts the faultinject grammar including the service-level
// plans accept-stall=N, client-disconnect=N and daemon-kill=N for chaos
// drills (see svf/internal/faultinject).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"svf/internal/faultinject"
	"svf/internal/journal"
	"svf/internal/service"
	"svf/internal/shard"
	"svf/internal/sim"
	"svf/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() int {
	listen := flag.String("listen", "127.0.0.1:0", `service listener address (":0" picks an ephemeral port, reported as "svfd: listening on ADDR")`)
	obsAddr := flag.String("obs-addr", "", `optional observability listener ("127.0.0.1:0"): /metrics, /progress, /debug/pprof`)
	journalDir := flag.String("journal", "", "root directory for the crash-safe journals (DIR/jobs for job state, DIR/cells for completed cells); empty runs in-memory only")
	parallel := flag.Int("parallel", 0, "concurrent cell executions across all jobs (0 = 4, or -workers when sharded)")
	maxJobs := flag.Int("max-jobs", 16, "outstanding (queued+running) job limit; admission beyond it sheds with 429")
	maxQueueBytes := flag.Int64("max-queue-bytes", 32<<20, "byte budget for outstanding job specs; admission beyond it sheds with 429")
	maxBody := flag.Int64("max-body", 8<<20, "per-request body cap (413 beyond it)")
	jobDeadline := flag.Duration("job-deadline", 0, "default wall-clock deadline per job (0 = unbounded; specs may set their own)")
	cellDeadline := flag.Duration("cell-deadline", 0, "default wall-clock deadline per cell (0 = unbounded; specs may set their own)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before canceling them")
	retries := flag.Int("retries", 1, "re-executions allowed per faulted cell before it is latched as permanently failed")
	inject := flag.String("inject", "", `deterministic fault-injection spec, e.g. "daemon-kill=2,seed=7" (see svf/internal/faultinject)`)
	eventsPath := flag.String("events", "", "append structured NDJSON lifecycle events to this file")
	workers := flag.Int("workers", 0, "execute cells on this many supervised worker processes (0 = in-process)")
	workerMode := flag.Bool("worker", false, "run as a shard worker speaking frames over stdin/stdout (internal; spawned by -workers)")
	flag.Parse()

	plan, err := faultinject.Parse(*inject)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfd: -inject: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		// Workers are stateless executors; the journals belong to the
		// daemon (the advisory flock would refuse anyway, but refusing the
		// flag makes the mistake a clear usage error).
		if *journalDir != "" {
			fmt.Fprintln(os.Stderr, "svfd: -worker: workers must not open the journals (-journal belongs to the daemon)")
			return 2
		}
		w := &shard.Worker{In: os.Stdin, Out: os.Stdout}
		if err := w.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "svfd: worker: %v\n", err)
			return 1
		}
		return 0
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	// Unlike svfexp, telemetry is always on: /metrics and /v1/progress are
	// part of the service API, not an opt-in diagnostic. The tracer serves
	// GET /v1/jobs/{id}/trace. The service, the shard pool and the run
	// cache all report into this one Observer, so their spans land in one
	// tree per job.
	obs := &sim.Observer{Registry: telemetry.NewRegistry(), Progress: telemetry.NewProgress(), Tracer: telemetry.NewTracer()}
	if *eventsPath != "" {
		f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfd: -events: %v\n", err)
			return 2
		}
		obs.Events = telemetry.NewEventLog(f)
		defer obs.Events.Close()
		obs.Tracer.SetEvents(obs.Events)
	}

	// Storage. With -journal, two journals under one root: completed cells
	// (the run cache's) and job state (the service's). Without it, the
	// cache's cell store still keeps retry attempts and poison latches for
	// the process lifetime.
	cache := sim.NewRunCache()
	var cellsJr, jobsJr *journal.Journal
	var jobsReplay *journal.Replay
	if *journalDir != "" {
		jopts := journal.Options{
			Inject: plan,
			// An injected journal crash must look like process death.
			OnCrash: func() { os.Exit(137) },
		}
		if obs.Events != nil {
			jopts.OnSync = func(appends, syncBatches uint64) {
				obs.Events.Emit(telemetry.Event{Type: "journal_flush", Records: appends, SyncBatches: syncBatches})
			}
		}
		var cellsRep *journal.Replay
		cellsJr, cellsRep, err = journal.Open(filepath.Join(*journalDir, "cells"), jopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfd: -journal: %v\n", err)
			return 2
		}
		defer cellsJr.Close()
		var restored sim.RestoreStats
		cache, restored = sim.NewRunCacheWithJournal(cellsJr, cellsRep)
		logf("svfd: cell journal: %s", restored)

		jobsJr, jobsReplay, err = journal.Open(filepath.Join(*journalDir, "jobs"), jopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfd: -journal: %v\n", err)
			return 2
		}
		defer jobsJr.Close()
	}

	var pool *shard.Pool
	if *workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfd: -workers: %v\n", err)
			return 1
		}
		pool, err = shard.NewPool(shard.Config{
			Workers: *workers,
			Plan:    plan,
			Spawn:   shard.CommandSpawner(exe, "-worker"),
			Logf:    func(format string, args ...any) { logf("svfd: "+format, args...) },
			Obs:     obs,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfd: -workers: %v\n", err)
			return 1
		}
		defer pool.Close()
		cache.SetExecutor(pool)
		obs.Progress.SetShard(pool.Status)
		if *parallel == 0 {
			*parallel = *workers
		}
	}
	cache.SetRetries(*retries)
	cache.SetObserver(obs)

	srv, err := service.New(service.Config{
		Cache:               cache,
		Jobs:                jobsJr,
		JobsReplay:          jobsReplay,
		Parallel:            *parallel,
		MaxJobs:             *maxJobs,
		MaxQueueBytes:       *maxQueueBytes,
		MaxBodyBytes:        *maxBody,
		DefaultJobDeadline:  *jobDeadline,
		DefaultCellDeadline: *cellDeadline,
		Plan:                plan,
		Obs:                 obs,
		Logf:                logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfd: %v\n", err)
		return 2
	}

	// Bind every listener before declaring readiness. Both lines use the
	// same "listening on ADDR" shape so scripts and CI discover ephemeral
	// ports the same way for either listener.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfd: -listen: %v\n", err)
		return 2
	}
	fmt.Printf("svfd: listening on %s\n", ln.Addr())
	var obsBound string
	if *obsAddr != "" {
		obsSrv := &telemetry.Server{Registry: obs.Registry, Progress: obs.Progress}
		obsBound, err = obsSrv.Listen(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svfd: -obs-addr: %v\n", err)
			return 2
		}
		defer obsSrv.Close()
		fmt.Printf("obs: listening on %s\n", obsBound)
	}
	srv.SetAddrs(ln.Addr().String(), obsBound)

	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	obs.Events.Emit(telemetry.Event{Type: "daemon_start", Detail: ln.Addr().String()})
	fmt.Println("svfd: ready")

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "svfd: serve: %v\n", err)
		return 1
	}

	// Graceful drain: admission flips to 503 immediately, in-flight jobs
	// get -drain-timeout to finish, then the HTTP server closes and the
	// deferred journal Closes flush. Exit 0 — a drained daemon is a
	// successful daemon.
	stop() // a second signal kills immediately via default disposition
	logf("svfd: signal received; draining")
	_ = srv.Drain(*drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = httpSrv.Close()
	}
	obs.Events.Emit(telemetry.Event{Type: "daemon_drained"})
	logf("svfd: drained; exiting")
	return 0
}
