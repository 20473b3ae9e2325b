package sim

import (
	"context"
	"errors"
	"testing"

	"svf/internal/faultinject"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// TestFamiliesRunClean drives the four stack-stress families far past the
// golden run length through every routing policy, with rapid context
// switching layered on top of the families' own $sp churn. Any latched
// *Fault here — a tripped $sp shadow, an RSE invariant break, an SVF window
// panic — is a model bug, not a workload problem.
func TestFamiliesRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("long family sweep")
	}
	const insts = 300_000
	configs := []struct {
		label string
		opt   Options
	}{
		{"base", Options{MaxInsts: insts}},
		{"svf", Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: insts, CtxSwitchPeriod: 9_000}},
		{"svf4k", Options{Policy: pipeline.PolicySVF, StackSizeBytes: 4096, MaxInsts: insts, CtxSwitchPeriod: 9_000}},
		{"sc", Options{Machine: pipeline.FourWide(), Policy: pipeline.PolicyStackCache,
			StackPorts: 2, Predictor: PredGshare, MaxInsts: insts, CtxSwitchPeriod: 9_000}},
		{"rse", Options{Machine: pipeline.EightWide(), Policy: pipeline.PolicyRSE, MaxInsts: insts, CtxSwitchPeriod: 9_000}},
	}
	for _, prof := range synth.Families() {
		prof := prof
		t.Run(prof.ID(), func(t *testing.T) {
			t.Parallel()
			for _, c := range configs {
				r, err := Run(prof, c.opt)
				if err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				if r.Pipe.Committed != insts {
					t.Fatalf("%s: committed %d of %d", c.label, r.Pipe.Committed, insts)
				}
			}
		})
	}
}

// TestFamiliesTrafficLoops runs the functional traffic loop over the
// families for every stack policy (SVF, stack cache, RSE): its $sp shadow
// faults on any disagreement with the trace or NotifySPUpdate failure.
func TestFamiliesTrafficLoops(t *testing.T) {
	const insts = 400_000
	ctx := context.Background()
	for _, prof := range synth.Families() {
		prof := prof
		t.Run(prof.ID(), func(t *testing.T) {
			t.Parallel()
			for _, policy := range []pipeline.StackPolicy{pipeline.PolicySVF, pipeline.PolicyStackCache, pipeline.PolicyRSE} {
				for _, size := range []int{4096, 8192} {
					if _, _, _, err := TrafficOnly(ctx, prof, policy, size, insts, 50_000); err != nil {
						t.Fatalf("policy %v size %d: %v", policy, size, err)
					}
				}
			}
		})
	}
}

// TestCoroutineChaos is the fault-injection run over the stack-switching
// family: corrupted instructions, mid-run panics, and truncated streams in
// the middle of flush/refill traffic must be contained as *Fault values,
// never escape as panics, and never wedge the run.
func TestCoroutineChaos(t *testing.T) {
	prof := synth.Coroutines()
	opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 60_000, CtxSwitchPeriod: 7_000}
	plans := []struct {
		plan     *faultinject.Plan
		mustFail bool
	}{
		{&faultinject.Plan{Seed: 1, Bench: prof.ID(), PanicCycle: 5_000}, true},
		{&faultinject.Plan{Seed: 2, Bench: prof.ID(), EOFAfter: 30_000}, false},
		{&faultinject.Plan{Seed: 3, Bench: prof.ID(), CorruptEvery: 5_000}, false},
		{&faultinject.Plan{Seed: 4, Bench: prof.ID(), CorruptEvery: 1_000}, false},
	}
	for _, c := range plans {
		c := c
		t.Run(c.plan.String(), func(t *testing.T) {
			o := opt
			o.FaultPlan = c.plan
			r, err := Run(prof, o)
			if err == nil {
				if c.mustFail {
					t.Fatal("injected fault produced a clean run")
				}
				// EOF truncation and benign corruptions finish cleanly —
				// but must have made real progress.
				if r.Pipe.Committed == 0 || int(r.Pipe.Committed) > o.MaxInsts {
					t.Fatalf("committed %d of %d", r.Pipe.Committed, o.MaxInsts)
				}
				return
			}
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("fault escaped containment: %T %v", err, err)
			}
		})
	}
}
