package shard

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"svf/internal/faultinject"
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// Proc is one spawned worker process as the pool sees it: a frame pipe in
// each direction plus kill/reap handles. The exec-based spawner fills it
// from an *exec.Cmd; tests fill it from in-process pipes.
type Proc struct {
	In   io.WriteCloser // coordinator → worker frames
	Out  io.ReadCloser  // worker → coordinator frames
	PID  int
	Kill func() error // force-terminate (SIGKILL); must unblock Out
	Wait func() error // reap after exit; may be nil
}

// Spawner starts one worker process.
type Spawner func() (*Proc, error)

// CommandSpawner execs path args... and speaks frames over its
// stdin/stdout — the production spawner (`svfexp -workers N` uses it with
// its own binary and `-worker`). The worker's stderr passes through to the
// coordinator's, so worker-side panics land in the campaign log.
func CommandSpawner(path string, args ...string) Spawner {
	return func() (*Proc, error) {
		cmd := exec.Command(path, args...)
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &Proc{
			In:   in,
			Out:  out,
			PID:  cmd.Process.Pid,
			Kill: func() error { return cmd.Process.Kill() },
			Wait: cmd.Wait,
		}, nil
	}
}

// Config parameterises a Pool.
type Config struct {
	// Workers is the fleet size (required, ≥ 1).
	Workers int
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the watchdog reclaims the worker. Default 30s.
	LeaseTTL time.Duration
	// Heartbeat is the worker heartbeat period. Default LeaseTTL/4.
	Heartbeat time.Duration
	// PoisonK quarantines a cell once it has killed this many distinct
	// workers: the cell latches as permanently failed instead of
	// crash-looping the fleet. Default 3.
	PoisonK int
	// Plan carries the worker-kill / worker-stall chaos ordinals
	// (faultinject); nil injects nothing.
	Plan *faultinject.Plan
	// Spawn starts one worker (required).
	Spawn Spawner
	// Logf, when non-nil, receives coordinator notices (worker deaths,
	// lease expiries, quarantines).
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives svf_shard_* metrics.
	Registry *telemetry.Registry
	// Events, when non-nil, receives worker lifecycle events.
	Events *telemetry.EventLog
	// Tracer, when non-nil, records lease.wait and lease[gen] spans for
	// cells whose context carries a trace, and stamps the trace context on
	// outgoing cell frames.
	Tracer *telemetry.Tracer
}

// Pool is the coordinator's worker fleet: it implements sim.Executor, so a
// RunCache with SetExecutor(pool) farms every cache miss out to a worker
// under a time-bounded lease. All supervision lives here; the cache above
// neither knows nor cares that execution is remote.
type Pool struct {
	cfg Config

	mu        sync.Mutex
	workers   []*worker
	idle      chan *worker
	leaseSeq  uint64
	assignSeq uint64                  // chaos-plan ordinal (1-based)
	poison    map[string]map[int]bool // cell key → worker slots it killed
	closed    bool
	done      chan struct{} // closes to stop the watchdog

	// Counters (under mu; exported via Status).
	assigned        uint64
	completed       uint64
	reenqueued      uint64
	leaseExpired    uint64
	workerDeaths    uint64
	staleResults    uint64
	staleHeartbeats uint64
	quarantined     uint64
	respawns        uint64
}

// worker is one fleet slot. The slot survives its process: a died worker
// respawns in place with a bumped generation, and frames from a previous
// generation's reader are ignored.
type worker struct {
	slot  int
	gen   int
	proc  *Proc
	pid   int
	alive bool
	lease *lease
	wmu   sync.Mutex // serialises In writes (cell vs shutdown)
}

// lease is one in-flight assignment.
type lease struct {
	id       uint64
	key      string // cell identity, for poison tracking
	bench    string
	started  time.Time
	deadline time.Time
	expired  bool
	reason   string            // why the watchdog expired it
	ch       chan leaseOutcome // buffered 1; exactly one delivery
}

// leaseOutcome is what the dispatcher blocks on: a worker frame (result or
// fault) or a supervision error (death, expiry, quarantine).
type leaseOutcome struct {
	frame *Frame
	err   error
}

// PoisonCellError quarantines a cell that has killed PoisonK distinct
// workers. It implements sim.PermanentFaulter, so the cache latches the
// cell immediately (sim.LatchedError on every later request) instead of
// spending the rest of its retry budget crash-looping the fleet.
type PoisonCellError struct {
	Bench   string
	Key     string
	Workers int
}

// Error implements error.
func (e *PoisonCellError) Error() string {
	return fmt.Sprintf("shard: %s: poison cell quarantined after killing %d distinct workers (%s)",
		e.Bench, e.Workers, e.Key)
}

// PermanentFault implements sim.PermanentFaulter.
func (e *PoisonCellError) PermanentFault() bool { return true }

// Defaults.
const (
	defaultLeaseTTL = 30 * time.Second
	defaultPoisonK  = 3
)

// NewPool spawns the fleet and starts the lease watchdog. Callers own the
// pool's lifetime: Close drains and terminates the workers.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("shard: pool needs at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("shard: pool needs a Spawner")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 4
	}
	if cfg.PoisonK <= 0 {
		cfg.PoisonK = defaultPoisonK
	}
	p := &Pool{
		cfg:    cfg,
		idle:   make(chan *worker, cfg.Workers),
		poison: map[string]map[int]bool{},
		done:   make(chan struct{}),
	}
	if r := cfg.Registry; r != nil {
		r.Help("svf_shard_assigned_total", "cells assigned to workers")
		r.Help("svf_shard_completed_total", "cells completed by workers")
		r.Help("svf_shard_reenqueued_total", "cells reclaimed from dead or expired workers and re-enqueued")
		r.Help("svf_shard_lease_expired_total", "leases expired by the heartbeat watchdog")
		r.Help("svf_shard_worker_deaths_total", "worker processes that died")
		r.Help("svf_shard_stale_results_total", "worker frames discarded because their lease had expired")
		r.Help("svf_shard_quarantined_total", "poison cells quarantined after killing K distinct workers")
		r.Help("svf_shard_workers_alive", "live worker processes")
		r.Help("svf_lease_wait_seconds", "time a cell waited for an idle worker before its lease was granted")
		// Registered eagerly so /metrics shows the family before the first
		// assignment.
		r.Histogram("svf_lease_wait_seconds", telemetry.SecondsBuckets...)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{slot: i}
		p.workers = append(p.workers, w)
		if err := p.spawnLocked(w); err != nil {
			for _, prev := range p.workers {
				if prev.alive {
					prev.proc.Kill()
				}
			}
			return nil, fmt.Errorf("shard: spawn worker %d: %w", i, err)
		}
		p.idle <- w
	}
	go p.watchdog()
	return p, nil
}

// spawnLocked starts (or restarts) the slot's process and its reader.
func (p *Pool) spawnLocked(w *worker) error {
	proc, err := p.cfg.Spawn()
	if err != nil {
		return err
	}
	w.gen++
	w.proc = proc
	w.pid = proc.PID
	w.alive = true
	w.lease = nil
	p.gaugeWorkers()
	gen := w.gen
	// The reader goroutine is tagged with its slot so coordinator-side
	// pprof profiles segment by worker.
	go pprof.Do(context.Background(), pprof.Labels("worker", strconv.Itoa(w.slot)), func(context.Context) {
		p.readLoop(w, proc, gen)
	})
	return nil
}

// readLoop consumes one worker generation's frames until the pipe breaks,
// then runs the death path. Frames carrying a lease are matched against
// the worker's current, unexpired lease; anything else is stale and
// discarded (counted) — that is the whole late-result story.
func (p *Pool) readLoop(w *worker, proc *Proc, gen int) {
	for {
		f, err := readFrame(proc.Out)
		if err != nil {
			p.workerDied(w, gen, err)
			return
		}
		switch f.Type {
		case FrameHello:
			p.mu.Lock()
			if w.gen == gen {
				if f.PID != 0 {
					w.pid = f.PID
				}
				if f.Version != ProtocolVersion {
					p.mu.Unlock()
					p.logf("shard: worker %d speaks protocol v%d, want v%d; replacing it", w.slot, f.Version, ProtocolVersion)
					proc.Kill()
					continue
				}
			}
			p.mu.Unlock()
		case FrameHeartbeat:
			p.mu.Lock()
			if l := w.lease; w.gen == gen && l != nil && l.id == f.Lease && !l.expired {
				l.deadline = time.Now().Add(p.cfg.LeaseTTL)
			} else {
				p.staleHeartbeats++
			}
			p.mu.Unlock()
		case FrameResult, FrameFault:
			p.mu.Lock()
			l := w.lease
			if w.gen == gen && l != nil && l.id == f.Lease && !l.expired {
				w.lease = nil
				p.completed++
				p.count("svf_shard_completed_total")
				p.mu.Unlock()
				l.ch <- leaseOutcome{frame: f}
				p.release(w)
			} else {
				p.staleResults++
				p.count("svf_shard_stale_results_total")
				p.mu.Unlock()
				p.logf("shard: worker %d: discarded stale %s frame for lease %d", w.slot, f.Type, f.Lease)
			}
		}
	}
}

// workerDied runs the death path for one worker generation: deliver the
// in-flight lease's outcome (a retryable fault, or a quarantine once the
// cell has killed K distinct workers), then respawn the slot.
func (p *Pool) workerDied(w *worker, gen int, cause error) {
	if w.proc != nil && w.proc.Wait != nil {
		go w.proc.Wait() // reap; exit status is uninteresting
	}
	p.mu.Lock()
	if w.gen != gen {
		p.mu.Unlock()
		return // a previous generation's reader noticing its own corpse
	}
	w.alive = false
	p.workerDeaths++
	p.count("svf_shard_worker_deaths_total")
	p.gaugeWorkers()

	var outcome *leaseOutcome
	var bench string
	if l := w.lease; l != nil {
		w.lease = nil
		reason := fmt.Sprintf("worker %d (pid %d) died mid-cell", w.slot, w.pid)
		if l.expired {
			reason = fmt.Sprintf("worker %d (pid %d): %s", w.slot, w.pid, l.reason)
		}
		bench = l.bench

		// Poison tracking: count distinct worker slots this cell killed.
		set := p.poison[l.key]
		if set == nil {
			set = map[int]bool{}
			p.poison[l.key] = set
		}
		set[w.slot] = true
		if len(set) >= p.cfg.PoisonK {
			p.quarantined++
			p.count("svf_shard_quarantined_total")
			outcome = &leaseOutcome{err: &PoisonCellError{Bench: l.bench, Key: l.key, Workers: len(set)}}
		} else {
			p.reenqueued++
			p.count("svf_shard_reenqueued_total")
			p.logf("shard: %s; cell re-enqueued", reason)
			outcome = &leaseOutcome{err: &sim.Fault{
				Bench: l.bench,
				Err:   fmt.Errorf("shard: %s; cell re-enqueued", reason),
			}}
		}
		deliverTo := l.ch
		defer func() { deliverTo <- *outcome }()
	}

	respawned := false
	if !p.closed {
		if err := p.spawnLocked(w); err != nil {
			p.logf("shard: respawn worker %d: %v", w.slot, err)
		} else {
			p.respawns++
			respawned = true
		}
	}
	p.mu.Unlock()

	if outcome != nil {
		p.event(telemetry.Event{Type: "shard_worker_death", Bench: bench, Err: cause.Error(), Detail: fmt.Sprintf("slot %d gen %d", w.slot, gen)})
		if pe, ok := outcome.err.(*PoisonCellError); ok {
			p.logf("shard: %v", pe)
		}
	}
	// Return the slot to the idle pool only when the death freed a lease:
	// a worker that died while idle (or mid-assignment) already has its
	// idle entry (or a dispatcher holding it), and a second entry would
	// let one slot be assigned twice.
	if respawned && outcome != nil {
		p.release(w)
	}
}

// release returns a worker to the idle pool (never blocks: idle has one
// slot per worker, and a worker is pushed only when its lease clears).
func (p *Pool) release(w *worker) {
	select {
	case p.idle <- w:
	default:
		// Unreachable by construction; dropping would deadlock quietly,
		// so shout instead.
		p.logf("shard: BUG: idle channel full releasing worker %d", w.slot)
	}
}

// watchdog expires leases whose heartbeat deadline has passed: the worker
// is wedged (or its kill landed without closing the pipe), so it is
// terminated, which funnels into the death path exactly like a crash.
func (p *Pool) watchdog() {
	period := p.cfg.Heartbeat / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		now := time.Now()
		var kill []*Proc
		p.mu.Lock()
		for _, w := range p.workers {
			l := w.lease
			if !w.alive || l == nil || l.expired || now.Before(l.deadline) {
				continue
			}
			l.expired = true
			l.reason = fmt.Sprintf("lease %d expired after %s without a heartbeat", l.id, now.Sub(l.started).Round(time.Millisecond))
			p.leaseExpired++
			p.count("svf_shard_lease_expired_total")
			kill = append(kill, w.proc)
			p.logf("shard: worker %d (pid %d): %s; terminating", w.slot, w.pid, l.reason)
		}
		p.mu.Unlock()
		for _, proc := range kill {
			proc.Kill()
		}
	}
}

// ExecRun implements sim.Executor for timing runs.
func (p *Pool) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	opt.Probe = nil // instrumentation never crosses the wire
	cell := &Cell{Kind: CellRun, Prof: prof, Opt: &opt}
	key := sim.RunCellKey(prof, opt)
	f, err := p.execCell(ctx, cell, key, prof.ID())
	if err != nil {
		return nil, err
	}
	if f.Run == nil {
		return nil, fmt.Errorf("shard: result frame without run payload")
	}
	return f.Run, nil
}

// ExecTraffic implements sim.Executor for functional traffic runs.
func (p *Pool) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	cell := &Cell{
		Kind: CellTraffic, Prof: prof,
		Policy: policy, SizeBytes: sizeBytes, MaxInsts: maxInsts, CtxPeriod: ctxPeriod,
	}
	key := sim.TrafficCellKey(prof, policy, sizeBytes, maxInsts, ctxPeriod)
	f, err := p.execCell(ctx, cell, key, prof.ID())
	if err != nil {
		return 0, 0, 0, err
	}
	return f.In, f.Out, f.CtxBytes, nil
}

// execCell assigns the cell to an idle worker under a fresh lease and
// blocks until the lease resolves: a result/fault frame from the worker,
// or a supervision error (death, expiry, quarantine). Cancellation is
// honoured only while waiting for a worker — once assigned, the dispatcher
// waits the lease out, which is what makes SIGTERM a graceful drain
// (in-flight cells finish; the wait is bounded by the lease TTL).
func (p *Pool) execCell(ctx context.Context, cell *Cell, key, bench string) (*Frame, error) {
	// Tracing: the caller's span (the cache's worker.run/retry attempt)
	// parents a lease.wait span covering the idle-worker wait and a
	// lease[genN] span covering assignment through outcome. The wait is
	// also observed in svf_lease_wait_seconds with the trace ID as its
	// exemplar. All of it is skipped when the context carries no trace.
	sc := telemetry.SpanFromContext(ctx)
	var waitSp *telemetry.ActiveSpan
	if p.cfg.Tracer != nil && sc.Valid() {
		waitSp = p.cfg.Tracer.StartSpan(sc, "lease.wait")
	}
	waitStart := time.Now()
	var w *worker
	for {
		select {
		case w = <-p.idle:
		case <-ctx.Done():
			waitSp.End()
			return nil, ctx.Err()
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			waitSp.End()
			return nil, fmt.Errorf("shard: pool is closed")
		}
		if w.alive {
			break
		}
		// A dead slot that failed its respawn earlier: try again now.
		if err := p.spawnLocked(w); err != nil {
			p.mu.Unlock()
			waitSp.End()
			return nil, fmt.Errorf("shard: no live worker for %s: %w", bench, err)
		}
		p.respawns++
		break
	}
	// Assign under the pool lock: lease ID, chaos ordinal, deadline.
	p.leaseSeq++
	p.assignSeq++
	l := &lease{
		id:       p.leaseSeq,
		key:      key,
		bench:    bench,
		started:  time.Now(),
		deadline: time.Now().Add(p.cfg.LeaseTTL),
		ch:       make(chan leaseOutcome, 1),
	}
	cell.HeartbeatMS = int64(p.cfg.Heartbeat / time.Millisecond)
	if cell.HeartbeatMS < 1 {
		cell.HeartbeatMS = 1
	}
	cell.Kill = p.cfg.Plan.WorkerKillAt(p.assignSeq)
	cell.Stall = p.cfg.Plan.WorkerStallAt(p.assignSeq)
	w.lease = l
	p.assigned++
	p.count("svf_shard_assigned_total")
	proc := w.proc
	slot, gen, pid := w.slot, w.gen, w.pid
	p.mu.Unlock()

	waitSp.End()
	if p.cfg.Registry != nil {
		p.cfg.Registry.Histogram("svf_lease_wait_seconds", telemetry.SecondsBuckets...).
			ObserveExemplar(time.Since(waitStart).Seconds(), sc.Trace)
	}
	var leaseSp *telemetry.ActiveSpan
	if p.cfg.Tracer != nil && sc.Valid() {
		leaseSp = p.cfg.Tracer.StartSpan(sc, fmt.Sprintf("lease[gen%d]", gen))
		leaseSp.SetAttr("lease", fmt.Sprint(l.id))
		leaseSp.SetAttr("slot", strconv.Itoa(slot))
		leaseSp.SetAttr("pid", strconv.Itoa(pid))
	}
	// The cell frame carries the lease span's context (falling back to the
	// caller's) so worker-echoed heartbeat/result/fault frames correlate
	// with the job's span tree.
	var frameTrace *telemetry.SpanContext
	if fsc := leaseSp.Context(); fsc.Valid() {
		frameTrace = &fsc
	} else if sc.Valid() {
		scc := sc
		frameTrace = &scc
	}

	p.event(telemetry.Event{Type: "shard_assign", Bench: bench, Key: key, Detail: fmt.Sprintf("worker %d lease %d", w.slot, l.id)})
	w.wmu.Lock()
	werr := writeFrame(proc.In, &Frame{Type: FrameCell, Lease: l.id, Cell: cell, Trace: frameTrace})
	w.wmu.Unlock()
	if werr != nil {
		// The pipe is broken, so the reader is about to run the death
		// path and deliver a fault for this lease; fall through and wait.
		p.logf("shard: worker %d: assign write failed: %v", w.slot, werr)
	}

	out := <-l.ch
	if leaseSp != nil {
		switch {
		case out.err != nil:
			if _, poison := out.err.(*PoisonCellError); poison {
				leaseSp.SetAttr("outcome", "quarantine")
			} else {
				leaseSp.SetAttr("outcome", "worker-lost")
			}
		case out.frame.Type == FrameFault:
			leaseSp.SetAttr("outcome", "fault")
		default:
			leaseSp.SetAttr("outcome", "ok")
		}
		leaseSp.End()
	}
	if out.err != nil {
		return nil, out.err
	}
	if out.frame.Type == FrameFault {
		return nil, out.frame.Fault.Err()
	}
	return out.frame, nil
}

// Close drains the fleet: shutdown frames to idle workers, a grace period
// for exits, then kills. Callers must have finished (or abandoned) their
// ExecRun/ExecTraffic calls first — Close does not cancel leases.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	workers := append([]*worker(nil), p.workers...)
	p.mu.Unlock()
	close(p.done)

	for _, w := range workers {
		p.mu.Lock()
		alive, proc := w.alive, w.proc
		p.mu.Unlock()
		if !alive || proc == nil {
			continue
		}
		// Best-effort goodbye in a goroutine: a wedged worker that has
		// stopped draining its stdin would block the write (pipes have
		// finite buffers), and Close must not hang on it — the grace
		// period below kills whatever ignores the shutdown.
		go func(w *worker, proc *Proc) {
			w.wmu.Lock()
			defer w.wmu.Unlock()
			_ = writeFrame(proc.In, &Frame{Type: FrameShutdown})
			_ = proc.In.Close()
		}(w, proc)
	}
	// Grace: a worker that got the shutdown exits promptly and its reader
	// marks it dead; kill whatever remains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		n := 0
		for _, w := range workers {
			if w.alive {
				n++
			}
		}
		p.mu.Unlock()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range workers {
		p.mu.Lock()
		alive, proc := w.alive, w.proc
		p.mu.Unlock()
		if alive && proc != nil {
			proc.Kill()
		}
	}
	return nil
}

// Status snapshots the pool: what /progress serves and the shard summary
// line prints.
func (p *Pool) Status() telemetry.ShardStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := telemetry.ShardStatus{
		Assigned:        p.assigned,
		Completed:       p.completed,
		Reenqueued:      p.reenqueued,
		LeaseExpired:    p.leaseExpired,
		WorkerDeaths:    p.workerDeaths,
		Respawns:        p.respawns,
		StaleResults:    p.staleResults,
		StaleHeartbeats: p.staleHeartbeats,
		Quarantined:     p.quarantined,
	}
	now := time.Now()
	for _, w := range p.workers {
		ws := telemetry.ShardWorker{Slot: w.slot, PID: w.pid, Gen: w.gen, Alive: w.alive}
		if l := w.lease; l != nil {
			ws.Bench = l.bench
			ws.LeaseAgeMS = int64(now.Sub(l.started) / time.Millisecond)
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// logf forwards to the configured logger.
func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// count bumps a registry counter when telemetry is attached.
func (p *Pool) count(name string) {
	if p.cfg.Registry != nil {
		p.cfg.Registry.Counter(name).Inc()
	}
}

// gaugeWorkers refreshes the live-worker gauge; callers hold p.mu.
func (p *Pool) gaugeWorkers() {
	if p.cfg.Registry == nil {
		return
	}
	n := 0
	for _, w := range p.workers {
		if w.alive {
			n++
		}
	}
	p.cfg.Registry.Gauge("svf_shard_workers_alive").Set(float64(n))
}

// event forwards to the configured event log.
func (p *Pool) event(ev telemetry.Event) {
	if p.cfg.Events != nil {
		p.cfg.Events.Emit(ev)
	}
}
