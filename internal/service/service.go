package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"svf/internal/faultinject"
	"svf/internal/journal"
	"svf/internal/sim"
	"svf/internal/telemetry"
)

// Config wires a Server to its cache, journal, and telemetry.
type Config struct {
	// Cache executes and dedups cells. Required. Build it with whatever
	// store/executor the deployment wants (journaled cells, shard pool);
	// the server never talks to workers directly.
	Cache *sim.RunCache

	// Jobs is the job-state journal: one "accepted" record per admitted
	// job, superseded by a "done" record carrying per-cell outcomes.
	// Optional; without it a restart forgets unfinished jobs. JobsReplay
	// is the replay returned by journal.Open for the same directory.
	Jobs       *journal.Journal
	JobsReplay *journal.Replay

	// Parallel bounds concurrently executing cells across all jobs
	// (default 4).
	Parallel int
	// MaxJobs bounds outstanding (queued + running) jobs; admission
	// beyond it sheds with 429 (default 16).
	MaxJobs int
	// MaxQueueBytes bounds the summed spec bytes of outstanding jobs —
	// the byte budget on queued work (default 32 MiB).
	MaxQueueBytes int64
	// MaxBodyBytes caps one request body (default 8 MiB).
	MaxBodyBytes int64

	// DefaultJobDeadline/DefaultCellDeadline apply when a spec carries
	// none; zero means unbounded.
	DefaultJobDeadline  time.Duration
	DefaultCellDeadline time.Duration

	// Plan drives the deterministic service-level chaos faults
	// (accept-stall, client-disconnect, daemon-kill).
	Plan *faultinject.Plan
	// AcceptStallDur is how long an injected accept stall holds the
	// admission slot (default 1s).
	AcceptStallDur time.Duration

	// Obs is the telemetry handle: its registry serves /metrics, its
	// progress tracker /v1/progress, its event log receives the job and
	// drain events, and its tracer records each job's span tree (job →
	// admit → queue → cell → …) and serves GET /v1/jobs/{id}/trace. Pass
	// the observer the cache (SetObserver) and the shard pool report into,
	// so their spans land in the same trees. Nil turns telemetry off at
	// zero cost.
	Obs *sim.Observer
	// Logf narrates lifecycle to the daemon log; default discards.
	Logf func(format string, args ...any)
	// Exit replaces os.Exit for the injected daemon-kill (tests).
	Exit func(code int)
}

// Cell statuses. A job is a partial failure when any cell lands in a
// status other than "done".
const (
	CellPending     = "pending"
	CellRunning     = "running"
	CellDone        = "done"
	CellDeadline    = "deadline"    // cell or job deadline exceeded
	CellCanceled    = "canceled"    // daemon shutdown mid-cell
	CellLatched     = "latched"     // retry budget exhausted (sim.LatchedError)
	CellQuarantined = "quarantined" // poison-cell quarantine (budget-independent latch)
	CellFailed      = "failed"      // non-retryable execution error
)

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// cellState is one cell's status and, for a failed cell, why.
type cellState struct {
	status string
	errMsg string
}

// terminal reports whether the cell has finished, one way or another.
func (cs cellState) terminal() bool {
	return cs.status != CellPending && cs.status != CellRunning
}

// Job is one accepted submission. Once it is done it retains its ID, its
// trace ID, one cellState per cell and its spec, whose cells are the
// server's shared ones (Server.internLocked).
type Job struct {
	ID   string
	spec *JobSpec
	// bytes is the admission byte charge held until the job finishes.
	bytes int64
	// trace is the job's trace ID — minted deterministically from the
	// job's content-fingerprint ID, so a journal-replayed job (even one
	// accepted by a pre-tracing build) continues the same trace. Immutable
	// after construction.
	trace string
	// root is the job's root span until the job is done (nil when tracing
	// is off); acceptedAt anchors the queue-wait histogram.
	root       *telemetry.ActiveSpan
	acceptedAt time.Time

	// mu guards state, cells and changed, so a reader sees the job's
	// state and its cells' statuses as one snapshot.
	mu    sync.Mutex
	state string
	// cells holds the status of spec.Cells[i] at index i.
	cells []cellState
	// changed exists while a results stream waits for a cell: the next
	// cell to finish closes and clears it, and the next waiter makes a
	// new one.
	changed chan struct{}
}

// newJob returns a queued job with every cell pending.
func newJob(id string, spec *JobSpec, bytes int64) *Job {
	j := &Job{ID: id, spec: spec, bytes: bytes, state: JobQueued, cells: make([]cellState, len(spec.Cells))}
	for i := range j.cells {
		j.cells[i].status = CellPending
	}
	return j
}

func (j *Job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// setCell records cell i's status and, once the cell has finished, wakes
// the results streams waiting on the job.
func (j *Job) setCell(i int, status, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[i] = cellState{status: status, errMsg: errMsg}
	if j.changed != nil && j.cells[i].terminal() {
		close(j.changed)
		j.changed = nil
	}
}

// snapshot returns the job's state and a copy of its cells' statuses, read
// under one lock, so a done job never shows an unfinished cell.
func (j *Job) snapshot() (state string, cells []cellState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, append([]cellState(nil), j.cells...)
}

// waitCell blocks until cell i has finished and returns its status, or
// returns false once ctx ends.
func (j *Job) waitCell(ctx context.Context, i int) (cellState, bool) {
	for {
		j.mu.Lock()
		cs := j.cells[i]
		if cs.terminal() {
			j.mu.Unlock()
			return cs, true
		}
		if j.changed == nil {
			j.changed = make(chan struct{})
		}
		changed := j.changed
		j.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return cs, false
		}
	}
}

// jobRecord is the journal body for a job (Kind "job", Key "job|"+ID).
// The last record per key wins on replay: an accepted record with no
// Cells means unfinished (re-run on restart), a done record carries the
// per-cell outcomes.
type jobRecord struct {
	ID    string          `json:"id"`
	State string          `json:"state"` // "accepted" | "done"
	Spec  json.RawMessage `json:"spec"`
	Cells []cellRecord    `json:"cells,omitempty"`
	// Trace is the job's trace ID. Absent in records written before
	// tracing existed; replay re-mints the same ID from the job ID.
	Trace string `json:"trace,omitempty"`
}

// cellRecord is one cell's journaled outcome.
type cellRecord struct {
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
}

// Server is the service core: admission, execution, journaling, drain.
// The HTTP layer (http.go) is a thin skin over its methods.
type Server struct {
	cfg Config

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu               sync.Mutex
	jobs             map[string]*Job
	order            []string             // submission order, replayed jobs first
	cells            map[string]*CellSpec // by cell key; see internLocked
	outstanding      int
	outstandingBytes int64
	draining         bool
	started          bool
	acceptSeq        uint64

	resultsSeq atomic.Uint64

	// addrs for /readyz; set by the daemon once listeners are bound.
	addrMu     sync.Mutex
	listenAddr string
	obsAddr    string

	jobsWG sync.WaitGroup
	sem    chan struct{}

	// replayed holds jobs restored unfinished from the journal; Start
	// launches their drivers.
	replayed []*Job
}

// New builds a Server and replays the job journal. Call Start to begin
// executing (replayed and newly accepted) jobs.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		return nil, errors.New("service: Config.Cache is required")
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 16
	}
	if cfg.MaxQueueBytes <= 0 {
		cfg.MaxQueueBytes = 32 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.AcceptStallDur <= 0 {
		cfg.AcceptStallDur = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Exit == nil {
		cfg.Exit = os.Exit
	}
	if cfg.Obs == nil {
		cfg.Obs = &sim.Observer{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       map[string]*Job{},
		cells:      map[string]*CellSpec{},
		sem:        make(chan struct{}, cfg.Parallel),
	}
	if r := cfg.Obs.Registry; r != nil {
		r.Help("svf_service_jobs_submitted_total", "jobs accepted for execution")
		r.Help("svf_service_jobs_deduped_total", "submissions coalesced onto an existing job by content fingerprint")
		r.Help("svf_service_jobs_completed_total", "jobs that reached the done state")
		r.Help("svf_service_jobs_replayed_total", "unfinished jobs restored from the journal on startup")
		r.Help("svf_service_rejected_total", "submissions rejected, by reason")
		r.Help("svf_service_cells_total", "cells finished, by terminal status")
		r.Help("svf_service_jobs_outstanding", "jobs queued or running")
		r.Help("svf_service_queue_bytes", "summed spec bytes of outstanding jobs")
		r.Help("svf_job_queue_seconds", "time from job admission to its driver starting")
		r.Help("svf_cell_run_seconds", "wall-clock time one cell spent executing, including cache and lease waits")
		// Registered eagerly so /metrics shows the families before the
		// first job.
		r.Histogram("svf_job_queue_seconds", telemetry.SecondsBuckets...)
		r.Histogram("svf_cell_run_seconds", telemetry.SecondsBuckets...)
		r.Gauge("svf_service_jobs_outstanding")
		r.Gauge("svf_service_queue_bytes")
	}
	if err := s.replayJobs(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// replayJobs rebuilds jobs from the journal replay: done jobs become
// queryable history, accepted-but-unfinished jobs are queued for Start.
func (s *Server) replayJobs() error {
	if s.cfg.JobsReplay == nil {
		return nil
	}
	for _, rec := range s.cfg.JobsReplay.Records {
		if rec.Kind != "job" {
			continue
		}
		var jr jobRecord
		if err := json.Unmarshal(rec.Data, &jr); err != nil {
			s.cfg.Logf("svfd: journal: skipping undecodable job record %q: %v", rec.Key, err)
			continue
		}
		spec, err := ParseJobSpec(jr.Spec)
		if err != nil {
			// A spec that no longer resolves (renamed workload, tightened
			// limits) must not wedge startup; it becomes a lost job, and
			// the log says so.
			s.cfg.Logf("svfd: journal: job %s no longer resolves, dropping: %v", jr.ID, err)
			continue
		}
		s.internLocked(spec)
		j := newJob(jr.ID, spec, int64(len(jr.Spec)))
		// Pre-tracing records carry no trace ID; minting is deterministic
		// on the job ID, so the replayed job continues the same trace its
		// original acceptance would have had.
		j.trace = jr.Trace
		if j.trace == "" {
			j.trace = telemetry.MintTraceID("svf-job|" + jr.ID)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if jr.State == "done" && len(jr.Cells) == len(j.cells) {
			j.state = JobDone
			for i, cr := range jr.Cells {
				j.cells[i] = cellState{status: cr.Status, errMsg: cr.Err}
			}
			continue
		}
		// Unfinished: the accepted record survived, the done record did
		// not — the daemon died mid-job. Re-admit it, with a fresh root
		// span marked as a replay.
		j.acceptedAt = time.Now()
		j.root = s.cfg.Obs.StartSpan(telemetry.SpanContext{Trace: j.trace}, "job")
		j.root.SetAttr("job", jr.ID)
		j.root.SetAttr("replayed", "true")
		s.chargeLocked(1, j.bytes)
		s.jobsWG.Add(1)
		s.replayed = append(s.replayed, j)
		s.cfg.Obs.Count("svf_service_jobs_replayed_total", 1)
	}
	if n := len(s.replayed); n > 0 {
		s.cfg.Logf("svfd: journal: restored %d job(s), %d unfinished re-enqueued", len(s.order), n)
	} else if len(s.order) > 0 {
		s.cfg.Logf("svfd: journal: restored %d completed job(s)", len(s.order))
	}
	// The jobs are rebuilt; the records need not outlive them.
	s.cfg.JobsReplay = nil
	return nil
}

// internLocked replaces each of spec's cells with the server's resolved
// cell of the same key, and adopts the cells it has not seen, so every
// job that names a cell shares one key string, one Options and one
// profile: the server's retained state grows with distinct cells, not
// with jobs × cells. A job's journaled spec therefore spells a shared
// cell the way its first submitter did; replay resolves either spelling
// to the same key and job ID. Callers hold s.mu, or are New, before
// anything runs.
func (s *Server) internLocked(spec *JobSpec) {
	for i, c := range spec.Cells {
		if shared, ok := s.cells[c.cell.Key()]; ok {
			spec.Cells[i] = shared
		} else {
			s.cells[c.cell.Key()] = c
		}
	}
}

// chargeLocked charges jobs outstanding jobs and bytes spec bytes to the
// admission budget (negative values release them) and publishes the
// budget's gauges. Callers hold s.mu, or are New, before anything runs.
func (s *Server) chargeLocked(jobs int, bytes int64) {
	s.outstanding += jobs
	s.outstandingBytes += bytes
	s.cfg.Obs.SetGauge("svf_service_jobs_outstanding", float64(s.outstanding))
	s.cfg.Obs.SetGauge("svf_service_queue_bytes", float64(s.outstandingBytes))
}

// Start begins executing replayed jobs and marks the server ready.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = true
	replayed := s.replayed
	s.replayed = nil
	s.mu.Unlock()
	for _, j := range replayed {
		s.cfg.Obs.Progress.AddTotal(len(j.cells))
		s.startJob(j)
	}
}

// SetAddrs records the bound listener addresses for /readyz.
func (s *Server) SetAddrs(listen, obs string) {
	s.addrMu.Lock()
	s.listenAddr, s.obsAddr = listen, obs
	s.addrMu.Unlock()
}

// Addrs returns the bound listener addresses.
func (s *Server) Addrs() (listen, obs string) {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	return s.listenAddr, s.obsAddr
}

// submitResult is SubmitTraced's outcome, shaped for the HTTP layer.
type submitResult struct {
	job     *Job
	deduped bool
	// shed is non-nil when admission rejected the submission.
	shed error
}

// errOverload marks a 429 shed.
var errOverload = errors.New("service: admission queue full")

// errDraining marks a 503 during drain.
var errDraining = errors.New("service: draining")

// SubmitTraced admits one parsed spec of rawLen bytes. It implements the
// admission contract: dedupe first (a retry of a known job is never
// shed), then bounded queue + byte budget, then journal, then execute.
// parent is the client's X-Svf-Trace context; the job's own trace ID is
// always minted from its content fingerprint (so dedupe and replay keep
// one trace per job), and a remote parent is recorded as a root-span
// attribute rather than a span link — the served span tree stays closed.
func (s *Server) SubmitTraced(spec *JobSpec, rawLen int, parent telemetry.SpanContext) submitResult {
	id := spec.ID()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.cfg.Obs.CountLabeled("svf_service_rejected_total", "reason", "draining")
		return submitResult{shed: errDraining}
	}
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.cfg.Obs.Count("svf_service_jobs_deduped_total", 1)
		return submitResult{job: j, deduped: true}
	}
	if s.outstanding >= s.cfg.MaxJobs || s.outstandingBytes+int64(rawLen) > s.cfg.MaxQueueBytes {
		s.mu.Unlock()
		s.cfg.Obs.CountLabeled("svf_service_rejected_total", "reason", "overload")
		return submitResult{shed: errOverload}
	}
	s.internLocked(spec)
	j := newJob(id, spec, int64(rawLen))
	j.trace = telemetry.MintTraceID("svf-job|" + id)
	j.acceptedAt = time.Now()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.chargeLocked(1, j.bytes)
	s.acceptSeq++
	seq := s.acceptSeq
	started := s.started
	// The WaitGroup charge is taken under the same lock as the draining
	// check, so Drain's Wait can never miss a job that admission let in.
	s.jobsWG.Add(1)
	s.mu.Unlock()

	s.cfg.Obs.Count("svf_service_jobs_submitted_total", 1)
	s.cfg.Obs.Events.Emit(telemetry.Event{Type: "job_accepted", Key: "job|" + id, Detail: fmt.Sprintf("cells=%d bytes=%d", len(j.cells), rawLen)})

	// The job's root span opens here; the admit span covers the rest of
	// the admission path through the durable accepted record.
	j.root = s.cfg.Obs.StartSpan(telemetry.SpanContext{Trace: j.trace}, "job")
	j.root.SetAttr("job", id)
	if parent.Valid() {
		j.root.SetAttr("remote_parent", parent.String())
	}
	admit := s.cfg.Obs.StartSpan(j.root.Context(), "admit")

	// Chaos: a stalled accept path holds its admission slot — concurrent
	// submissions see the queue fuller, which is exactly the overload
	// behavior the drill wants to observe.
	if s.cfg.Plan.AcceptStallAt(seq) {
		s.cfg.Logf("svfd: inject: accept-stall on job %d for %s", seq, s.cfg.AcceptStallDur)
		select {
		case <-time.After(s.cfg.AcceptStallDur):
		case <-s.baseCtx.Done():
		}
	}

	s.journalJob(j, "accepted", nil)
	admit.End()

	// Chaos: the deterministic stand-in for the drill's kill -9 — die
	// right after the accepted record is durable, before any execution.
	if s.cfg.Plan.DaemonKillAt(seq) {
		s.cfg.Logf("svfd: inject: daemon-kill after accepting job %d", seq)
		s.cfg.Exit(137)
		// An Exit seam that returns (in-process tests) means the daemon
		// is dead: the accepted job must not start — the restart runs it.
		s.jobsWG.Done()
		return submitResult{job: j}
	}

	s.cfg.Obs.Progress.AddTotal(len(j.cells))
	if started {
		s.startJob(j)
	} else {
		s.mu.Lock()
		s.replayed = append(s.replayed, j)
		s.mu.Unlock()
	}
	return submitResult{job: j}
}

// journalJob appends one job record; journal loss is logged, not fatal —
// the daemon keeps serving from memory.
func (s *Server) journalJob(j *Job, state string, cells []cellRecord) {
	if s.cfg.Jobs == nil {
		return
	}
	specJSON, err := json.Marshal(j.spec)
	if err != nil {
		s.cfg.Logf("svfd: journal: marshal job %s: %v", j.ID, err)
		return
	}
	data, err := json.Marshal(jobRecord{ID: j.ID, State: state, Spec: specJSON, Cells: cells, Trace: j.trace})
	if err != nil {
		s.cfg.Logf("svfd: journal: marshal job record %s: %v", j.ID, err)
		return
	}
	if err := s.cfg.Jobs.Append(journal.Record{Kind: "job", Key: "job|" + j.ID, Data: data}); err != nil {
		s.cfg.Logf("svfd: journal: append job %s (%s): %v", j.ID, state, err)
	}
}

// startJob launches the job's driver goroutine. The WaitGroup charge was
// already taken at admission (or replay), under the server lock.
func (s *Server) startJob(j *Job) {
	go func() {
		defer s.jobsWG.Done()
		s.runJob(j)
	}()
}

// runJob executes every cell under the job deadline and the global cell
// semaphore, then finishes the job.
func (s *Server) runJob(j *Job) {
	j.setState(JobRunning)
	s.cfg.Obs.Events.Emit(telemetry.Event{Type: "job_start", Key: "job|" + j.ID})
	s.cfg.Obs.ObserveSeconds("svf_job_queue_seconds", time.Since(j.acceptedAt), j.trace)
	ctx := s.baseCtx
	if d := s.jobDeadline(j.spec); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var wg sync.WaitGroup
	for i, spec := range j.spec.Cells {
		// Each cell gets a span under the job root; the queue span inside
		// it covers the wait for an execution slot.
		var cellSp *telemetry.ActiveSpan
		if s.cfg.Obs.Tracer != nil {
			cellSp = s.cfg.Obs.StartSpan(j.root.Context(), fmt.Sprintf("cell[%d] %s", i, spec.BenchID()))
		}
		queueSp := s.cfg.Obs.StartSpan(cellSp.Context(), "queue")
		select {
		case s.sem <- struct{}{}:
			queueSp.End()
		case <-ctx.Done():
			// Deadline or shutdown while waiting for a slot: the
			// remaining cells terminate without executing.
			queueSp.End()
			s.finishCell(j, i, ctx.Err(), cellSp)
			continue
		}
		wg.Add(1)
		go func(i int, sp *telemetry.ActiveSpan) {
			defer wg.Done()
			defer func() { <-s.sem }()
			s.execCell(ctx, j, i, sp)
		}(i, cellSp)
	}
	wg.Wait()
	s.finishJob(j)
}

// execCell runs cell i under its own deadline and records the outcome.
// The cell span rides the context into the cache (and from there into the
// shard pool), and the goroutine carries pprof job/cell labels so
// /debug/pprof profiles segment by job.
func (s *Server) execCell(ctx context.Context, j *Job, i int, sp *telemetry.ActiveSpan) {
	if d := s.cellDeadline(j.spec); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	j.setCell(i, CellRunning, "")
	ctx = telemetry.ContextWithSpan(ctx, sp.Context())
	start := time.Now()
	var err error
	spec := j.spec.Cells[i]
	pprof.Do(ctx, pprof.Labels("job", j.ID, "cell", spec.cell.Key()), func(ctx context.Context) {
		_, err = s.cfg.Cache.Do(ctx, spec.cell)
	})
	s.cfg.Obs.ObserveSeconds("svf_cell_run_seconds", time.Since(start), j.trace)
	s.finishCell(j, i, err, sp)
}

// finishCell classifies err into cell i's terminal status and records it,
// closing the cell's span with a zero-width result marker.
func (s *Server) finishCell(j *Job, i int, err error, sp *telemetry.ActiveSpan) {
	status, msg := CellDone, ""
	var le *sim.LatchedError
	switch {
	case err == nil:
	case errors.As(err, &le):
		status, msg = CellLatched, le.Error()
		if le.Poison {
			status = CellQuarantined
		}
	case sim.IsPermanentFault(err):
		// First execution of a poison cell: the cache latched it but
		// returns the quarantine verdict itself, not yet a LatchedError.
		status, msg = CellQuarantined, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		status, msg = CellDeadline, "deadline exceeded"
	case errors.Is(err, context.Canceled):
		status, msg = CellCanceled, "canceled by shutdown"
	default:
		status, msg = CellFailed, err.Error()
	}
	j.setCell(i, status, msg)
	if rsp := s.cfg.Obs.StartSpan(sp.Context(), "result"); rsp != nil {
		rsp.SetAttr("status", status)
		rsp.End()
	}
	sp.SetAttr("status", status)
	sp.End()
	s.cfg.Obs.Progress.Done(1)
	s.cfg.Obs.CountLabeled("svf_service_cells_total", "status", status)
	if status != CellDone {
		spec := j.spec.Cells[i]
		s.cfg.Obs.Events.Emit(telemetry.Event{Type: "cell_failed", Key: spec.cell.Key(), Bench: spec.BenchID(), Err: msg, Detail: status})
	}
}

// finishJob journals the outcome and releases the admission charge.
func (s *Server) finishJob(j *Job) {
	_, statuses := j.snapshot()
	cells := make([]cellRecord, len(statuses))
	failed := 0
	for i, cs := range statuses {
		cells[i] = cellRecord{Status: cs.status, Err: cs.errMsg}
		if cs.status != CellDone {
			failed++
		}
	}
	// The root span ends before the state flips to done, so a client that
	// polled the job done and fetches the trace sees the frozen, complete
	// span tree — byte-identical across refetches. The tracer keeps the
	// ended span; the job need not.
	j.root.End()
	j.root = nil
	s.journalJob(j, "done", cells)
	j.setState(JobDone)

	s.mu.Lock()
	s.chargeLocked(-1, -j.bytes)
	s.mu.Unlock()
	s.cfg.Obs.Count("svf_service_jobs_completed_total", 1)
	s.cfg.Obs.Events.Emit(telemetry.Event{Type: "job_finish", Key: "job|" + j.ID, Detail: fmt.Sprintf("cells=%d failed=%d", len(j.cells), failed)})
	if failed > 0 {
		s.cfg.Logf("svfd: job %s done with partial failure: %d/%d cells failed", j.ID, failed, len(j.cells))
	} else {
		s.cfg.Logf("svfd: job %s done (%d cells)", j.ID, len(j.cells))
	}
}

func (s *Server) jobDeadline(spec *JobSpec) time.Duration {
	if spec.JobDeadlineMS > 0 {
		return time.Duration(spec.JobDeadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultJobDeadline
}

func (s *Server) cellDeadline(spec *JobSpec) time.Duration {
	if spec.CellDeadlineMS > 0 {
		return time.Duration(spec.CellDeadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultCellDeadline
}

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the server accepts work.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.draining
}

// Drain stops admission, waits up to timeout for in-flight jobs, then
// cancels whatever remains (those cells journal as canceled — completed
// cells are already durable, so a restart re-runs only the remainder).
// It returns nil when every job driver has exited.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	n := s.outstanding
	s.mu.Unlock()
	if !alreadyDraining {
		s.cfg.Logf("svfd: draining (%d job(s) outstanding)", n)
		s.cfg.Obs.Events.Emit(telemetry.Event{Type: "drain_start", Detail: fmt.Sprintf("outstanding=%d", n)})
	}
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	if timeout <= 0 {
		timeout = 365 * 24 * time.Hour
	}
	select {
	case <-done:
	case <-time.After(timeout):
		s.cfg.Logf("svfd: drain timeout after %s; canceling in-flight cells", timeout)
		s.cancelBase()
		<-done
	}
	s.cfg.Obs.Events.Emit(telemetry.Event{Type: "drain_finish"})
	return nil
}

// Close cancels everything immediately (tests; the daemon uses Drain).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancelBase()
	s.jobsWG.Wait()
}
