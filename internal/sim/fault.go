package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"svf/internal/pipeline"
	"svf/internal/trace"
)

// Fault is a contained simulation failure: an internal panic caught by the
// recover net, a tripped deadlock watchdog, or a pipeline consistency
// error. It carries enough identity (benchmark, cell fingerprint) and
// machine state (cycle, committed count, bounded state dump) that a failed
// cell in a large campaign is diagnosable without re-running anything.
//
// Cancellation is deliberately NOT a Fault: a run stopped by its context
// returns ctx.Err() (possibly wrapped) so errors.Is(err, context.Canceled)
// keeps working and supervisors can tell "the machine broke" from "we told
// it to stop".
type Fault struct {
	// Bench is the workload's ID (or the caller-supplied stream name).
	Bench string
	// Fingerprint identifies the exact cell: the 16-hex short form of its
	// cell key (RunCellKey or TrafficCellKey), which events also carry.
	Fingerprint string
	// Cycle and Committed locate the failure in simulated time.
	Cycle, Committed uint64
	// Panic is the recovered panic value, empty when the failure was an
	// ordinary error return.
	Panic string
	// State is a bounded pipeline-state dump (pipeline.StateDump).
	State string
	// Stack is a bounded goroutine stack, captured only for panics.
	Stack string
	// Err is the underlying error for non-panic faults (e.g. the
	// watchdog's DeadlockError).
	Err error
}

// Error implements error, rendering the one-line form the fault summaries
// print: bench, fingerprint, cycle, committed count, and the cause.
func (f *Fault) Error() string {
	cause := f.Panic
	if cause == "" && f.Err != nil {
		cause = f.Err.Error()
	}
	kind := "fault"
	if f.Panic != "" {
		kind = "panic"
	}
	return fmt.Sprintf("sim: %s in %s [run %s] at cycle %d (%d committed): %s",
		kind, f.Bench, f.Fingerprint, f.Cycle, f.Committed, cause)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// maxFaultStack bounds the goroutine stack captured into a Fault.
const maxFaultStack = 8 << 10

// boundedStack captures the current goroutine's stack, truncated.
func boundedStack() string {
	buf := make([]byte, maxFaultStack)
	return string(buf[:runtime.Stack(buf, false)])
}

// stateDumpEntries bounds how many RUU entries a fault's State carries.
const stateDumpEntries = 4

// runContained executes the pipeline under the recover net and folds every
// failure mode into a *Fault — except context cancellation, which passes
// through as ctx.Err() wrapped with the run's name. The caller fills in
// the fault's Fingerprint.
func runContained(ctx context.Context, name string, pl *pipeline.Pipeline, s trace.Stream, maxInsts uint64) (pipeline.Stats, error) {
	st, err := func() (st pipeline.Stats, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &Fault{
					Bench:     name,
					Cycle:     pl.Cycle(),
					Committed: pl.Stats().Committed,
					Panic:     fmt.Sprint(r),
					State:     pl.StateDump(stateDumpEntries),
					Stack:     boundedStack(),
				}
			}
		}()
		return pl.Run(ctx, s, maxInsts)
	}()
	if err == nil {
		return st, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return st, fmt.Errorf("sim: %s: %w", name, err)
	}
	var f *Fault
	if errors.As(err, &f) {
		return st, err
	}
	// Pipeline errors (watchdog, $sp shadow, RSE consistency) fold into
	// the same type so supervisors handle one shape.
	fault := &Fault{
		Bench:     name,
		Cycle:     pl.Cycle(),
		Committed: pl.Stats().Committed,
		State:     pl.StateDump(stateDumpEntries),
		Err:       err,
	}
	var dl *pipeline.DeadlockError
	if errors.As(err, &dl) {
		fault.Cycle, fault.Committed, fault.State = dl.Cycle, dl.Committed, dl.State
	}
	return st, fault
}
