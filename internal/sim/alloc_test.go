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
// or repeated cell pays: the allocations of a Do hit on a timing cell and
// on a traffic cell of a NewRunCache may not grow, with no observer and
// with one holding a registry and a tracer but serving a request with no
// inbound span. A hit derives nothing, since the cell carries its key:
// the timing hit's one allocation is the caller's private copy of the
// Result, and a traffic hit makes none.
func TestRunCacheHitAllocs(t *testing.T) {
	prof := synth.Crafty()
	opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, DL1Ports: 2, MaxInsts: 20_000}
	runCell := RunCell(prof, &opt)
	trafficCell := TrafficCell(prof, pipeline.PolicySVF, 8<<10, 20_000, 0)
	for _, c := range []struct {
		name         string
		obs          *Observer
		run, traffic float64
	}{
		{"no observer", nil, 1, 0},
		{"registry and tracer", &Observer{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}, 1, 0},
	} {
		cache := NewRunCache()
		cache.SetExecutor(stubRuns{run: func(context.Context, *synth.Profile, Options) (*Result, error) {
			return &Result{Bench: prof.ID()}, nil
		}})
		cache.SetObserver(c.obs)
		ctx := context.Background()
		traffic := func() {
			if _, err := cache.Do(ctx, trafficCell); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			if _, err := cache.Do(ctx, runCell); err != nil {
				t.Fatal(err)
			}
		}
		run() // the misses, outside the count
		traffic()
		if got := testing.AllocsPerRun(100, run); got > c.run {
			t.Errorf("%s: a timing-cell hit allocates %v times, want at most %v", c.name, got, c.run)
		}
		if got := testing.AllocsPerRun(100, traffic); got > c.traffic {
			t.Errorf("%s: a traffic-cell hit allocates %v times, want at most %v", c.name, got, c.traffic)
		}
	}
}

// TestTrafficOnlyAllocs guards the functional traffic loop over a
// trace-cache hit, which every Table 3 and Table 4 cell pays: a replayed
// TrafficOnly of each stack policy may not allocate more than it does now,
// so reading the replay may cost no more than its stream header, whatever
// the loop builds to skip what it does not act on.
func TestTrafficOnlyAllocs(t *testing.T) {
	prof := synth.Crafty()
	ctx := context.Background()
	for _, c := range []struct {
		policy pipeline.StackPolicy
		max    float64
	}{
		{pipeline.PolicySVF, 10},
		{pipeline.PolicyStackCache, 10},
		{pipeline.PolicyRSE, 15},
	} {
		run := func() {
			if _, _, _, err := TrafficOnly(ctx, prof, c.policy, 8<<10, 50_000, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // records the trace, outside the count
		hits := TraceCacheStats().Hits
		if got := testing.AllocsPerRun(20, run); got > c.max {
			t.Errorf("%s: a replayed TrafficOnly allocates %v times, want at most %v", c.policy, got, c.max)
		}
		if TraceCacheStats().Hits == hits {
			t.Fatalf("%s: the runs did not replay a recording", c.policy)
		}
	}
}
