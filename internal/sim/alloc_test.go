//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package sim

import (
	"context"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/telemetry"
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

// TestRunCacheHitAllocs guards the cache-hit path, which every restored
// or repeated cell pays: the allocations of a Run hit and a Traffic hit on
// a NewRunCache may not grow, with no observer and with one holding a
// registry and a tracer but serving a request with no inbound span. Most
// of them derive the cell key (TestCellKeyAllocs).
func TestRunCacheHitAllocs(t *testing.T) {
	prof := synth.Crafty()
	opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, DL1Ports: 2, MaxInsts: 20_000}
	for _, c := range []struct {
		name         string
		obs          *Observer
		run, traffic float64
	}{
		{"no observer", nil, 10, 10},
		{"registry and tracer", &Observer{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}, 10, 10},
	} {
		cache := NewRunCache()
		cache.SetExecutor(stubRuns{run: func(context.Context, *synth.Profile, Options) (*Result, error) {
			return &Result{Bench: prof.ID()}, nil
		}})
		cache.SetObserver(c.obs)
		ctx := context.Background()
		traffic := func() {
			if _, _, _, err := cache.Traffic(ctx, prof, pipeline.PolicySVF, 8<<10, 20_000, 0); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			if _, err := cache.Run(ctx, prof, opt); err != nil {
				t.Fatal(err)
			}
		}
		run() // the misses, outside the count
		traffic()
		if got := testing.AllocsPerRun(100, run); got > c.run {
			t.Errorf("%s: a Run hit allocates %v times, want at most %v", c.name, got, c.run)
		}
		if got := testing.AllocsPerRun(100, traffic); got > c.traffic {
			t.Errorf("%s: a Traffic hit allocates %v times, want at most %v", c.name, got, c.traffic)
		}
	}
}
