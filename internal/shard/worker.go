package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"svf/internal/sim"
	"svf/internal/telemetry"
)

// Worker is the other end of the coordinator's pipe: it executes one cell
// at a time, heartbeating while it works. `svfexp -worker` runs one over
// its stdin/stdout; tests run one in-process over pipes.
//
// A worker is deliberately stateless and journal-free — it must never open
// the coordinator's journal (the advisory flock enforces this; see
// internal/journal) and it caches nothing. Losing a worker loses only the
// in-flight cell, which the coordinator's lease machinery re-enqueues.
type Worker struct {
	// In carries frames from the coordinator, Out frames back to it.
	In  io.Reader
	Out io.Writer

	// Exit replaces os.Exit for the worker-kill chaos flag; tests
	// override it to observe the death without killing the test binary.
	Exit func(code int)
	// Hang replaces the worker-stall wedge (block forever, without
	// heartbeats); tests override it with something bounded.
	Hang func()

	wmu sync.Mutex // serialises Out writes (heartbeats vs results)
}

// WorkerKillExitCode is the exit status of a worker obeying the
// worker-kill chaos flag — distinguishable in process tables and CI logs
// from a genuine crash.
const WorkerKillExitCode = 3

// Run speaks the worker side of the protocol until the coordinator sends
// shutdown or closes the pipe (both are clean exits: a coordinator that
// died takes its workers down without noise), or ctx is cancelled.
func (w *Worker) Run(ctx context.Context) error {
	if w.Exit == nil {
		w.Exit = os.Exit
	}
	if w.Hang == nil {
		w.Hang = func() {
			for {
				time.Sleep(time.Hour)
			}
		}
	}
	if err := w.write(&Frame{Type: FrameHello, Version: ProtocolVersion, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("shard: worker hello: %w", err)
	}
	for {
		f, err := readFrame(w.In)
		if err != nil {
			if err == io.EOF || ctx.Err() != nil {
				return nil
			}
			return err
		}
		switch f.Type {
		case FrameShutdown:
			return nil
		case FrameCell:
			if err := w.runCell(ctx, f); err != nil {
				return err
			}
		default:
			// Unknown frames are ignored: an older worker under a newer
			// coordinator drops what it cannot execute and the lease
			// expires, which the coordinator already handles.
		}
	}
}

// runCell executes one assignment and reports its outcome under the
// frame's lease, heartbeating throughout.
func (w *Worker) runCell(ctx context.Context, f *Frame) error {
	cell := f.Cell
	if cell == nil {
		return fmt.Errorf("shard: cell frame without cell payload")
	}
	stopHB := w.startHeartbeats(f.Lease, cell.HeartbeatMS, f.Trace)

	// Chaos flags: the coordinator marked this assignment for a drill.
	if cell.Kill {
		// Die abruptly mid-cell, result unsent — what a crash or OOM kill
		// looks like from the coordinator's side.
		stopHB()
		w.Exit(WorkerKillExitCode)
		return nil // reached only under a test Exit override
	}
	if cell.Stall {
		// Wedge without heartbeats so the lease watchdog must reclaim us.
		stopHB()
		w.Hang()
		return nil
	}

	// The trace context is echoed on the outcome frame, and the execution
	// goroutine is tagged with pprof labels so /debug/pprof profiles on a
	// worker segment by job and cell.
	out := &Frame{Lease: f.Lease, Trace: f.Trace}
	labels := []string{"worker", strconv.Itoa(os.Getpid())}
	if cell.Prof != nil {
		labels = append(labels, "cell", cell.Prof.ID())
	}
	if f.Trace != nil && f.Trace.Trace != "" {
		labels = append(labels, "job", f.Trace.Trace)
	}
	pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
		var o sim.Outcome
		var err error
		switch {
		case cell.Prof == nil:
			err = errors.New("shard: cell missing profile")
		case cell.Opt != nil:
			o.Run, err = sim.RunContext(ctx, cell.Prof, *cell.Opt)
		default:
			o.In, o.Out, o.CtxBytes, err = sim.TrafficOnly(ctx, cell.Prof, cell.Policy, cell.SizeBytes, cell.MaxInsts, cell.CtxPeriod)
		}
		if err != nil {
			out.Type, out.Fault = FrameFault, faultInfoOf(err)
		} else {
			out.Type, out.Outcome = FrameResult, &o
		}
	})
	stopHB()
	return w.write(out)
}

// startHeartbeats begins the lease's heartbeat ticker and returns its stop
// function (idempotent). Heartbeats echo the lease's trace context so a
// frame capture correlates liveness with the job's span tree.
func (w *Worker) startHeartbeats(lease uint64, periodMS int64, trace *telemetry.SpanContext) func() {
	if periodMS <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(time.Duration(periodMS) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// A failed heartbeat write means the coordinator is gone;
				// the main loop's read will notice, nothing to do here.
				_ = w.write(&Frame{Type: FrameHeartbeat, Lease: lease, Trace: trace})
			case <-stop:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(stop) }) }
}

// write sends one frame, serialised against concurrent writers.
func (w *Worker) write(f *Frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.Out, f)
}
