//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package service

import (
	"encoding/json"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// TestParseJobSpecAllocs guards submission parsing: the allocations per
// ParseJobSpec of an svfd-fresh job body (8 run cells, bench × policy ×
// ports) may not grow.
func TestParseJobSpecAllocs(t *testing.T) {
	var spec JobSpec
	profs := synth.Benchmarks()
	for i := 0; i < 8; i++ {
		ports := 1 + i%2
		opt := &sim.Options{Policy: pipeline.StackPolicy(i % 3), DL1Ports: ports, MaxInsts: 20_000 + 97*i}
		if opt.Policy != pipeline.PolicyNone {
			opt.StackPorts = ports
		}
		spec.Cells = append(spec.Cells, &CellSpec{Kind: CellRun, Bench: profs[i].ID(), Opt: opt})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const max = 311
	if got := testing.AllocsPerRun(50, func() {
		if _, err := ParseJobSpec(body); err != nil {
			t.Fatal(err)
		}
	}); got > max {
		t.Errorf("ParseJobSpec allocates %v times per 8-cell body, want at most %v", got, max)
	}
}
