// Package shard is the sharded campaign service: a long-lived coordinator
// (Pool) that farms campaign cells out to N worker processes over a small
// length-prefixed wire protocol, supervises them with time-bounded leases
// and heartbeats, and reclaims work from workers that crash, wedge, or are
// kill -9'd mid-cell. The pool plugs into sim.RunCache as its Executor, so
// everything above raw execution — single-flight dedup, the bounded
// retry/backoff budget, journaling, latching, telemetry — stays on the
// coordinator; only the simulation itself moves out of process.
//
// Transport is deliberately minimal: every message is a 4-byte
// little-endian length followed by a JSON frame, which workers speak over
// their stdin/stdout pipes. See DESIGN.md §5g.
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// ProtocolVersion guards against a coordinator driving a worker built from
// different sources; the worker's hello carries it and the pool refuses a
// mismatch rather than exchanging frames it might misread.
const ProtocolVersion = 1

// Frame types. The worker sends hello once at startup, then heartbeat /
// result / fault per lease; the coordinator sends cell assignments and a
// final shutdown.
const (
	FrameHello     = "hello"
	FrameCell      = "cell"
	FrameHeartbeat = "heartbeat"
	FrameResult    = "result"
	FrameFault     = "fault"
	FrameShutdown  = "shutdown"
)

// Frame is the single wire envelope; Type selects which fields are
// meaningful. One struct (rather than per-type payloads) keeps the decoder
// trivial and the protocol self-describing in captures.
type Frame struct {
	Type string

	// Version and PID travel in hello.
	Version int `json:",omitempty"`
	PID     int `json:",omitempty"`

	// Lease identifies the assignment: set by the coordinator on cell
	// frames and echoed by the worker on every heartbeat/result/fault, so
	// the coordinator can discard frames from a lease it has already
	// expired or reassigned.
	Lease uint64 `json:",omitempty"`

	// Cell is the assignment payload (cell frames).
	Cell *Cell `json:",omitempty"`

	// Run is a finished timing run (result frames for run cells).
	Run *sim.Result `json:",omitempty"`
	// In/Out/CtxBytes are a finished traffic run's counters (result
	// frames for traffic cells).
	In       uint64 `json:",omitempty"`
	Out      uint64 `json:",omitempty"`
	CtxBytes uint64 `json:",omitempty"`

	// Fault is a contained execution failure (fault frames).
	Fault *FaultInfo `json:",omitempty"`

	// Trace is the distributed-tracing context for this lease: set by the
	// coordinator on cell frames and echoed by the worker on its
	// heartbeat/result/fault frames, so frames in a capture correlate with
	// the job's span tree. Optional and ignored by older peers (unknown
	// JSON fields are skipped; absent fields stay nil), so it needs no
	// ProtocolVersion bump.
	Trace *telemetry.SpanContext `json:",omitempty"`
}

// Cell is one unit of campaign work: a timing run or a functional traffic
// run, shipped with its full workload profile (synth.Profile is pure data)
// so the worker rebuilds the exact program from the same seed.
type Cell struct {
	// Kind is "run" or "traffic".
	Kind string
	// Prof is the complete workload profile.
	Prof *synth.Profile
	// Opt is the run configuration (run cells). The coordinator strips
	// Probe before marshalling — instrumentation never crosses the wire.
	Opt *sim.Options `json:",omitempty"`

	// Traffic-cell parameters (TrafficOnly's signature).
	Policy    pipeline.StackPolicy `json:",omitempty"`
	SizeBytes int                  `json:",omitempty"`
	MaxInsts  int                  `json:",omitempty"`
	CtxPeriod uint64               `json:",omitempty"`

	// HeartbeatMS is the heartbeat period the worker must keep for this
	// lease; missing ~LeaseTTL of them gets the worker reclaimed.
	HeartbeatMS int64

	// Kill and Stall are the chaos-drill flags (faultinject worker-kill /
	// worker-stall): the coordinator sets one on the Nth assignment and
	// the worker obliges by dying abruptly or wedging without heartbeats.
	Kill  bool `json:",omitempty"`
	Stall bool `json:",omitempty"`
}

// CellKinds.
const (
	CellRun     = "run"
	CellTraffic = "traffic"
)

// FaultInfo is a *sim.Fault flattened for the wire (Fault carries an error
// field, which JSON cannot round-trip). IsFault distinguishes a contained,
// retryable simulation fault from an opaque error (bad configuration),
// which the cache must not retry.
type FaultInfo struct {
	IsFault     bool
	Bench       string
	Fingerprint string `json:",omitempty"`
	Cycle       uint64 `json:",omitempty"`
	Committed   uint64 `json:",omitempty"`
	Panic       string `json:",omitempty"`
	State       string `json:",omitempty"`
	Stack       string `json:",omitempty"`
	Msg         string
}

// faultInfoOf flattens an execution error for the wire.
func faultInfoOf(err error) *FaultInfo {
	var f *sim.Fault
	if errors.As(err, &f) {
		info := &FaultInfo{
			IsFault:     true,
			Bench:       f.Bench,
			Fingerprint: f.Fingerprint,
			Cycle:       f.Cycle,
			Committed:   f.Committed,
			Panic:       f.Panic,
			State:       f.State,
			Stack:       f.Stack,
		}
		if f.Err != nil {
			info.Msg = f.Err.Error()
		}
		return info
	}
	return &FaultInfo{Msg: err.Error()}
}

// Err reconstructs the execution error on the coordinator side. A
// retryable fault comes back as *sim.Fault so the cache's bounded retry
// recognises it; anything else is an opaque, non-retried error.
func (i *FaultInfo) Err() error {
	if i == nil {
		return errors.New("shard: fault frame without fault info")
	}
	if !i.IsFault {
		return errors.New(i.Msg)
	}
	f := &sim.Fault{
		Bench:       i.Bench,
		Fingerprint: i.Fingerprint,
		Cycle:       i.Cycle,
		Committed:   i.Committed,
		Panic:       i.Panic,
		State:       i.State,
		Stack:       i.Stack,
	}
	if i.Msg != "" {
		f.Err = errors.New(i.Msg)
	}
	return f
}

// maxFrameBytes bounds a single frame. A timing Result is a few KB; the
// profile a few hundred bytes; 64 MiB is "obviously corrupt length prefix"
// territory, not a real limit.
const maxFrameBytes = 64 << 20

// Typed decode errors. Every failure mode of the length-prefixed codec maps
// onto exactly one of these (wrapped with context), so callers — and the
// fuzz targets — can classify without string matching.
var (
	// ErrFrameTooLarge: the length prefix claims more than maxFrameBytes.
	ErrFrameTooLarge = errors.New("shard: frame exceeds size limit")
	// ErrFrameTruncated: the stream ended inside a header or body.
	ErrFrameTruncated = errors.New("shard: truncated frame")
	// ErrFrameDecode: the body was delivered whole but is not valid JSON
	// for the expected message type.
	ErrFrameDecode = errors.New("shard: malformed frame")
)

// readBlock reads one length-prefixed block. io.EOF at a block boundary is
// returned verbatim (a clean close). The claimed length is
// corruption-controlled, so the body buffer grows only as bytes actually
// arrive (io.CopyN copies in small chunks) rather than trusting the prefix
// with a single up-front allocation — a truncated stream claiming 64 MiB
// costs a few KB, not 64 MiB.
func readBlock(r io.Reader, what string) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("shard: read %s header: %w: %w", what, ErrFrameTruncated, err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrameBytes {
		return nil, fmt.Errorf("shard: %s length %d exceeds %d-byte limit (corrupt stream?): %w", what, n, int64(maxFrameBytes), ErrFrameTooLarge)
	}
	var buf bytes.Buffer
	buf.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&buf, r, n); err != nil {
		if err == io.EOF {
			// EOF inside a body is not a clean close; keep errors.Is(err,
			// io.EOF) reserved for frame boundaries.
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("shard: read %d-byte %s body: %w: %w", n, what, ErrFrameTruncated, err)
	}
	return buf.Bytes(), nil
}

// writeFrame marshals f and writes it length-prefixed. Callers serialise
// concurrent writers (the worker's heartbeat goroutine vs its result
// path) with their own mutex; writeFrame issues a single Write so a
// correctly-serialised caller can never interleave frames.
func writeFrame(w io.Writer, f *Frame) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("shard: marshal %s frame: %w", f.Type, err)
	}
	if len(data) > maxFrameBytes {
		return fmt.Errorf("shard: %s frame of %d bytes exceeds limit", f.Type, len(data))
	}
	buf := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(buf, uint32(len(data)))
	copy(buf[4:], data)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame. io.EOF at a frame boundary is
// returned verbatim (a clean close); EOF mid-frame is ErrFrameTruncated.
func readFrame(r io.Reader) (*Frame, error) {
	data, err := readBlock(r, "frame")
	if err != nil {
		return nil, err
	}
	f := &Frame{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("shard: decode frame: %w: %v", ErrFrameDecode, err)
	}
	return f, nil
}
