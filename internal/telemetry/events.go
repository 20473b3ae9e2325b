package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured run-lifecycle record in the NDJSON event log.
// Every field but TS and Type is optional; emitters fill what they know.
// The schema is append-only: consumers must ignore unknown fields, so new
// event types and fields never break an existing tailer.
type Event struct {
	// TS is the wall-clock emission time, RFC3339 with nanoseconds.
	TS string `json:"ts"`
	// Schema is the event-log schema version, stamped by Emit. Version 2
	// added Schema itself plus the span fields (Trace/Span/Parent/Name)
	// and the span_end type; version-1 consumers that ignore unknown
	// fields keep working.
	Schema int `json:"schema,omitempty"`
	// Type names the event: campaign_start, campaign_finish,
	// experiment_start, experiment_finish, run_start, run_finish,
	// run_fault, retry, backoff, cache_hit, cache_restore, latched,
	// journal_restore, journal_flush, trace_written, interrupt, span_end.
	Type string `json:"type"`
	// Trace/Span/Parent/Name identify a completed span (span_end events).
	// DurMS on a span_end is measured on the monotonic clock, so
	// wall-clock steps cannot skew it.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name,omitempty"`
	// Bench is the workload ID the event concerns.
	Bench string `json:"bench,omitempty"`
	// Fingerprint is the 16-hex short form of the cell's Key (run_* and
	// cache events, and run_fault events whose fault carries one).
	Fingerprint string `json:"fp,omitempty"`
	// Key is the cell's journal/cache identity (cache and journal events).
	Key string `json:"key,omitempty"`
	// Experiment names the table/figure (experiment_* events).
	Experiment string `json:"experiment,omitempty"`
	// Cycles/Committed/IPC summarise a finished run.
	Cycles    uint64  `json:"cycles,omitempty"`
	Committed uint64  `json:"committed,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	// DurMS is the event's wall-clock duration in milliseconds
	// (run_finish, experiment_finish, backoff delays).
	DurMS float64 `json:"dur_ms,omitempty"`
	// Attempt is the cumulative execution attempt (retry/fault events).
	Attempt uint32 `json:"attempt,omitempty"`
	// Err carries the failure text (run_fault, latched).
	Err string `json:"err,omitempty"`
	// Restored/Faulted/Latched summarise a journal replay
	// (journal_restore).
	Restored int `json:"restored,omitempty"`
	Faulted  int `json:"faulted,omitempty"`
	Latched  int `json:"latched,omitempty"`
	// Records/SyncBatches describe journal flush activity (journal_flush).
	Records     uint64 `json:"records,omitempty"`
	SyncBatches uint64 `json:"sync_batches,omitempty"`
	// Detail carries anything that fits no dedicated field (flag values on
	// campaign_start, the trace path on trace_written).
	Detail string `json:"detail,omitempty"`
}

// EventSchema is the version Emit stamps on every event.
const EventSchema = 2

// EventLog writes newline-delimited JSON events. It is safe for concurrent
// use, and — like the Probe — nil-safe: every method on a nil *EventLog is
// a no-op, so instrumentation sites need no guards.
type EventLog struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	err    error
	now    func() time.Time
}

// NewEventLog wraps w in an event log. If w is also an io.Closer, Close
// closes it after the final flush.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{bw: bufio.NewWriter(w), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		l.closer = c
	}
	return l
}

// Emit appends one event, stamping TS. Marshal or write failures latch:
// the first error is kept (see Err) and later emits become no-ops, so a
// full disk cannot crash — or slow — a running campaign.
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	ev.TS = l.now().Format(time.RFC3339Nano)
	ev.Schema = EventSchema
	buf, err := json.Marshal(ev)
	if err != nil {
		l.err = err
		return
	}
	buf = append(buf, '\n')
	if _, err := l.bw.Write(buf); err != nil {
		l.err = err
	}
}

// Flush forces buffered events to the underlying writer.
func (l *EventLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.err = l.bw.Flush()
	return l.err
}

// Err returns the first write/encode failure, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == errClosed {
		return nil
	}
	return l.err
}

// errClosed latches a closed log without reporting it as a failure.
var errClosed = io.ErrClosedPipe

// Close flushes and, when the sink is a Closer, closes it. Idempotent.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == errClosed {
		return nil
	}
	ferr := l.bw.Flush()
	if l.err == nil {
		l.err = ferr
	}
	first := l.err
	if l.closer != nil {
		cerr := l.closer.Close()
		if first == nil {
			first = cerr
		}
	}
	l.err = errClosed
	return first
}
