//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package shard

import (
	"bytes"
	"io"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// TestFrameAllocs guards the frame codec, which every lease pays twice:
// the allocations per writeFrame and readFrame of a run-cell assignment
// may not grow.
func TestFrameAllocs(t *testing.T) {
	f := &Frame{Type: FrameCell, Lease: 7, Cell: &Cell{
		Cell: sim.Cell{
			Prof: synth.Crafty(),
			Opt:  &sim.Options{Policy: pipeline.PolicySVF, StackPorts: 2, DL1Ports: 2, MaxInsts: 20_000},
		},
		HeartbeatMS: 500,
	}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	encoded := bytes.NewReader(bytes.Clone(buf.Bytes()))
	const maxWrite, maxRead = 2, 21
	if got := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}); got > maxWrite {
		t.Errorf("writeFrame allocates %v times per frame, want at most %v", got, maxWrite)
	}
	if got := testing.AllocsPerRun(100, func() {
		encoded.Seek(0, io.SeekStart)
		if _, err := readFrame(encoded); err != nil {
			t.Fatal(err)
		}
	}); got > maxRead {
		t.Errorf("readFrame allocates %v times per frame, want at most %v", got, maxRead)
	}
}
