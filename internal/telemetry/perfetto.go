package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// PipelineTrace captures one run's per-instruction stage timeline and
// renders it as Chrome trace-event JSON — the format Perfetto and
// chrome://tracing load directly. Each pipeline stage is a lane (a trace
// "thread"): an instruction appears as one slice per stage it occupied,
// so a stalled instruction is visibly long in the lane where it waited.
// Cycle numbers are written as microsecond timestamps (1 cycle = 1 µs),
// which keeps the units honest-looking in the UI without scaling.
//
// The trace is bounded: after MaxEvents slices the trace stops growing
// and counts what it dropped, so tracing a long run degrades to a prefix
// rather than an OOM.
type PipelineTrace struct {
	// MaxEvents caps emitted events; 0 selects DefaultMaxTraceEvents.
	MaxEvents int

	mu      sync.Mutex
	pending map[uint64]*traceInst
	events  []traceEvent
	dropped uint64
}

// DefaultMaxTraceEvents bounds a trace at roughly four slices per
// instruction for a 50k-instruction diagnostic run.
const DefaultMaxTraceEvents = 250_000

// Lane thread IDs, ordered the way the stages should stack in the UI.
const (
	laneFetch = iota + 1
	laneDispatch
	laneExecute
	laneCommit
	laneScheduler
	laneCounters
)

// laneNames maps lane tids to the thread names announced in metadata.
var laneNames = map[int]string{
	laneFetch:     "fetch/decode",
	laneDispatch:  "dispatch/wait-issue",
	laneExecute:   "execute",
	laneCommit:    "writeback/wait-commit",
	laneScheduler: "scheduler",
	laneCounters:  "occupancy",
}

// traceInst accumulates an in-flight instruction's stage timestamps until
// commit, when its slices are emitted in one go.
type traceInst struct {
	pc         uint64
	kind       string
	fetchedAt  uint64
	dispatched uint64
	issued     uint64
	completeAt uint64
}

// traceEvent is one JSON object in the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewPipelineTrace returns an empty trace.
func NewPipelineTrace() *PipelineTrace {
	return &PipelineTrace{pending: map[uint64]*traceInst{}}
}

func (t *PipelineTrace) cap() int {
	if t.MaxEvents <= 0 {
		return DefaultMaxTraceEvents
	}
	return t.MaxEvents
}

// push appends ev unless the trace is full.
func (t *PipelineTrace) push(ev traceEvent) {
	if len(t.events) >= t.cap() {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Dispatch records an instruction entering the window: its fetch/decode
// slice spans fetchedAt..cycle.
func (t *PipelineTrace) Dispatch(seq, pc uint64, kind string, fetchedAt, cycle uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending[seq] = &traceInst{pc: pc, kind: kind, fetchedAt: fetchedAt, dispatched: cycle}
}

// Issue records the instruction leaving the scheduler with its computed
// completion cycle.
func (t *PipelineTrace) Issue(seq, cycle, completeAt uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in, ok := t.pending[seq]; ok {
		in.issued = cycle
		in.completeAt = completeAt
	}
}

// Commit retires the instruction and emits its stage slices. Route,
// forwarded and mispredict annotate the slices' args for stall diagnosis.
func (t *PipelineTrace) Commit(seq, cycle uint64, route string, forwarded, mispredict bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	in, ok := t.pending[seq]
	if !ok {
		return
	}
	delete(t.pending, seq)
	args := map[string]any{"seq": seq, "pc": fmt.Sprintf("%#x", in.pc)}
	if route != "" {
		args["route"] = route
	}
	if forwarded {
		args["forwarded"] = true
	}
	if mispredict {
		args["mispredict"] = true
	}
	slice := func(lane int, from, to uint64) {
		if to < from { // defensive: never emit negative durations
			to = from
		}
		t.push(traceEvent{Name: in.kind, Ph: "X", TS: from, Dur: to - from + 1, PID: 1, TID: lane, Args: args})
	}
	slice(laneFetch, in.fetchedAt, in.dispatched)
	if in.issued != 0 || in.completeAt != 0 {
		slice(laneDispatch, in.dispatched, in.issued)
		slice(laneExecute, in.issued, in.completeAt)
		slice(laneCommit, in.completeAt, cycle)
	} else {
		// Never individually issued (e.g. morphed away or squash path):
		// show it occupying the window until commit.
		slice(laneDispatch, in.dispatched, cycle)
	}
}

// Marker emits an instant event on the scheduler lane without touching
// in-flight records — squash bubbles and context switches, where the
// instruction still commits later.
func (t *PipelineTrace) Marker(name string, cycle uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.push(traceEvent{Name: name, Ph: "i", TS: cycle, PID: 1, TID: laneScheduler,
		Args: map[string]any{"s": "t"}})
}

// span emits one scheduler-lane slice (fast-forward jumps).
func (t *PipelineTrace) span(name string, from, to uint64, lane int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if to < from {
		to = from
	}
	t.push(traceEvent{Name: name, Ph: "X", TS: from, Dur: to - from + 1, PID: 1, TID: lane})
}

// counterSample emits one occupancy counter event (rendered by Perfetto
// as stacked area charts on the counters track).
func (t *PipelineTrace) counterSample(cycle uint64, ruu, lsq, ifq int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.push(traceEvent{Name: "occupancy", Ph: "C", TS: cycle, PID: 1, TID: laneCounters,
		Args: map[string]any{"ruu": ruu, "lsq": lsq, "ifq": ifq}})
}

// Events returns the number of captured events; Dropped how many the cap
// rejected.
func (t *PipelineTrace) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the MaxEvents cap rejected.
func (t *PipelineTrace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteTo renders the trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}) with thread-name metadata so Perfetto labels
// the stage lanes.
func (t *PipelineTrace) WriteTo(w io.Writer) (int64, error) {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(laneNames)+len(t.events))
	for lane := laneFetch; lane <= laneCounters; lane++ {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": laneNames[lane]},
		})
		// sort_index pins the lane order to pipeline order in the UI.
		events = append(events, traceEvent{
			Name: "thread_sort_index", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"sort_index": lane},
		})
	}
	events = append(events, t.events...)
	t.mu.Unlock()

	cw := &countingWriter{w: w}
	err := writeTraceDoc(cw, events)
	return cw.n, err
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
