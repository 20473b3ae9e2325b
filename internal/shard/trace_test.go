package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"

	"svf/internal/sim"
	"svf/internal/telemetry"
)

// Frames carrying a trace context must round-trip it, and frames without
// one — from a worker built before tracing existed — must decode with a
// nil Trace. The trace context needed no protocol version of its own.
func TestFrameTraceRoundTripAndCompat(t *testing.T) {
	sc := &telemetry.SpanContext{Trace: "deadbeefdeadbeef", Span: "0000000000000001"}
	frames := []*Frame{
		{Type: FrameCell, Lease: 7, Cell: &Cell{Cell: sim.Cell{Prof: testProfile(t)}, HeartbeatMS: 50}, Trace: sc},
		{Type: FrameHeartbeat, Lease: 7, Trace: sc},
		{Type: FrameResult, Lease: 7, Outcome: &sim.Outcome{In: 1, Out: 2}, Trace: sc},
		{Type: FrameFault, Lease: 7, Fault: &FaultInfo{IsFault: true, Bench: "b"}, Trace: sc},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatalf("write %s: %v", f.Type, err)
		}
	}
	for _, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s frame did not round-trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
		if !reflect.DeepEqual(got.Trace, sc) {
			t.Errorf("%s frame trace = %+v", want.Type, got.Trace)
		}
	}

	// Old-peer compatibility both ways: a frame without the field decodes
	// to nil, and a frame with unknown extra fields still decodes (the
	// property that lets old workers skip Trace).
	oldFrame := []byte(`{"Type":"heartbeat","Lease":9}`)
	newFrame := []byte(`{"Type":"heartbeat","Lease":9,"SomeFutureField":true}`)
	for _, raw := range [][]byte{oldFrame, newFrame} {
		var hdr bytes.Buffer
		writeBlock(t, &hdr, raw)
		f, err := readFrame(&hdr)
		if err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		if f.Type != FrameHeartbeat || f.Lease != 9 || f.Trace != nil {
			t.Errorf("compat decode of %s = %+v", raw, f)
		}
	}

	// Tracing disabled: the field marshals away entirely, so pre-tracing
	// coordinators and workers exchange byte-identical frames.
	data, err := json.Marshal(&Frame{Type: FrameHeartbeat, Lease: 9})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("Trace")) {
		t.Errorf("traceless frame still mentions Trace: %s", data)
	}
}

// writeBlock length-prefixes raw bytes the way writeFrame does, for
// injecting hand-written JSON.
func writeBlock(t *testing.T, w io.Writer, raw []byte) {
	t.Helper()
	var hdr [4]byte
	hdr[0] = byte(len(raw))
	hdr[1] = byte(len(raw) >> 8)
	hdr[2] = byte(len(raw) >> 16)
	hdr[3] = byte(len(raw) >> 24)
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// A real worker echoes the lease's trace context on its heartbeat and
// result frames, so wire captures correlate with the job's span tree.
func TestWorkerEchoesTraceOnHeartbeatAndResult(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	w := &Worker{In: inR, Out: outW}
	go func() {
		_ = w.Run(context.Background())
		outW.Close()
	}()
	defer inW.Close()

	hello, err := readFrame(outR)
	if err != nil || hello.Type != FrameHello {
		t.Fatalf("hello = %+v, %v", hello, err)
	}

	// Retry with a growing workload until a heartbeat lands before the
	// result: heartbeat cadence vs run time is scheduler-dependent, and
	// the property under test is the trace echo, not the timing.
	sc := &telemetry.SpanContext{Trace: "deadbeefdeadbeef", Span: "00000000000000aa"}
	heartbeats := 0
	for attempt, insts := 0, 200_000; heartbeats == 0 && attempt < 3; attempt, insts = attempt+1, insts*4 {
		opt := testOptions()
		opt.MaxInsts = insts
		cell := &Cell{Cell: sim.Cell{Prof: testProfile(t), Opt: &opt}, HeartbeatMS: 1}
		lease := uint64(42 + attempt)
		if err := writeFrame(inW, &Frame{Type: FrameCell, Lease: lease, Cell: cell, Trace: sc}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := readFrame(outR)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if f.Lease != lease {
				t.Errorf("%s frame for lease %d, want %d", f.Type, f.Lease, lease)
			}
			if !reflect.DeepEqual(f.Trace, sc) {
				t.Errorf("%s frame trace = %+v, want %+v", f.Type, f.Trace, sc)
			}
			if f.Type == FrameHeartbeat {
				heartbeats++
				continue
			}
			if f.Type != FrameResult {
				t.Fatalf("unexpected %s frame", f.Type)
			}
			break
		}
	}
	if heartbeats == 0 {
		t.Error("no heartbeat frames observed before any result")
	}
	_ = writeFrame(inW, &Frame{Type: FrameShutdown})
}

// A traced pool run records lease.wait and lease[genN] spans under the
// caller's span, with the slot/pid attribution a postmortem needs.
func TestPoolRecordsLeaseSpans(t *testing.T) {
	tracer := telemetry.NewTracer()
	p, err := NewPool(Config{
		Workers:  1,
		LeaseTTL: 5 * time.Second,
		Spawn:    inprocSpawner(),
		Obs:      &sim.Observer{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	trace := telemetry.MintTraceID("svf-job|pool-spans")
	cell := tracer.StartSpan(telemetry.SpanContext{Trace: trace}, "cell[0]")
	ctx := telemetry.ContextWithSpan(context.Background(), cell.Context())
	if _, err := p.ExecRun(ctx, testProfile(t), testOptions()); err != nil {
		t.Fatal(err)
	}
	cell.End()

	var wait, lease *telemetry.Span
	for _, sp := range tracer.Spans(trace) {
		sp := sp
		switch {
		case sp.Name == "lease.wait":
			wait = &sp
		case len(sp.Name) > 5 && sp.Name[:5] == "lease":
			lease = &sp
		}
	}
	if wait == nil {
		t.Fatal("no lease.wait span")
	}
	if lease == nil {
		t.Fatal("no lease[genN] span")
	}
	cellID := tracer.Spans(trace)[0].ID
	if wait.Parent != cellID || lease.Parent != cellID {
		t.Errorf("lease spans not parented to the cell: wait=%s lease=%s cell=%s", wait.Parent, lease.Parent, cellID)
	}
	if lease.Attrs["slot"] == "" || lease.Attrs["outcome"] != "ok" {
		t.Errorf("lease span attrs = %+v", lease.Attrs)
	}
}
