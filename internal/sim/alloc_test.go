//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package sim

import (
	"testing"

	"svf/internal/pipeline"
	"svf/internal/synth"
)

// TestCellKeyAllocs guards key derivation, which every cache request
// pays: the allocations per RunCellKey and TrafficCellKey may not grow.
func TestCellKeyAllocs(t *testing.T) {
	prof := synth.Crafty()
	opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, DL1Ports: 2, MaxInsts: 20_000}
	for _, c := range []struct {
		name string
		max  float64
		key  func()
	}{
		{"RunCellKey", 8, func() { RunCellKey(prof, opt) }},
		{"TrafficCellKey", 10, func() { TrafficCellKey(prof, pipeline.PolicySVF, 8<<10, 2_000_000, 400_000) }},
	} {
		if got := testing.AllocsPerRun(100, c.key); got > c.max {
			t.Errorf("%s allocates %v times per call, want at most %v", c.name, got, c.max)
		}
	}
}
