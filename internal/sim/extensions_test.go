package sim

import (
	"bytes"
	"context"
	"testing"

	"svf/internal/bpred"
	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/pipeline"
	"svf/internal/regions"
	"svf/internal/synth"
	"svf/internal/trace"
)

// must unwraps a constructor's result for the tests' valid static
// configurations.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestRecordedTraceMatchesLiveGenerator is the trace-driven workflow's
// correctness anchor: simulating a recorded-and-reloaded trace must give
// bit-identical timing to simulating the live generator.
func TestRecordedTraceMatchesLiveGenerator(t *testing.T) {
	const n = 50_000
	prof := synth.Vortex()

	prog, err := ProgramFor(prof)
	if err != nil {
		t.Fatal(err)
	}
	// Record through the trace file format.
	rec := recordProgram(prog, n, trace.MaxShapes)
	var buf bytes.Buffer
	if err := trace.Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	reloaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	runOn := func(s trace.Stream) pipeline.Stats {
		hier := must(cache.NewHierarchy(cache.DefaultHierarchyConfig()))
		env := pipeline.Env{
			Machine: pipeline.SixteenWide(), Hier: hier,
			Pred: bpred.NewPerfect(), Layout: regions.DefaultLayout(),
		}
		env.Stack = pipeline.StackStructs{
			Policy: pipeline.PolicySVF,
			SVF:    must(core.New(core.Config{SizeBytes: 8 << 10}, hier.DL1)),
			Ports:  2,
		}
		p, err := pipeline.New(env)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(context.Background(), s, n)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	live := runOn(synth.NewGeneratorFor(prog))
	replayed := runOn(reloaded.Replay(n))
	if live != replayed {
		t.Errorf("live and replayed runs diverge:\nlive:     %+v\nreplayed: %+v", live, replayed)
	}
}

// TestX86VariantEndToEnd runs the §7 x86-flavoured extension through the
// whole stack and checks its anticipated costs appear.
func TestX86VariantEndToEnd(t *testing.T) {
	alpha := synth.Crafty()
	x86 := synth.X86Variant(alpha)

	ra, err := Run(alpha, Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := Run(x86, Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if ra.SVF.SubWordRMWs != 0 {
		t.Errorf("Alpha workload produced %d sub-word RMWs", ra.SVF.SubWordRMWs)
	}
	if rx.SVF.SubWordRMWs == 0 {
		t.Error("x86 workload produced no sub-word RMWs")
	}
	if rx.SVFQWIn <= ra.SVFQWIn {
		t.Errorf("x86 fill traffic (%d) should exceed Alpha's (%d)", rx.SVFQWIn, ra.SVFQWIn)
	}
}

// TestTrafficOnlyPartialWordsMatchTiming holds the functional traffic loop
// to the timing run on x86-flavoured workloads: both must read-modify-write
// partial first-writes, so their SVF fill traffic agrees to within the few
// fills a timing run skips by forwarding rerouted loads from the LSQ.
func TestTrafficOnlyPartialWordsMatchTiming(t *testing.T) {
	const insts = 200_000
	for _, base := range []*synth.Profile{synth.Crafty(), synth.Eon(), synth.Gcc()} {
		x86 := synth.X86Variant(base)
		r, err := Run(x86, Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: insts})
		if err != nil {
			t.Fatal(err)
		}
		in, _, _, err := TrafficOnly(context.Background(), x86, pipeline.PolicySVF, 8<<10, insts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.SVF.SubWordRMWs == 0 {
			t.Fatalf("%s: timing run made no sub-word RMWs", x86.ID())
		}
		if diff := int64(in) - int64(r.SVFQWIn); 100*max(diff, -diff) > 3*int64(r.SVFQWIn) {
			t.Errorf("%s: traffic-only fill %d QW, timing run %d QW: more than 3%% apart", x86.ID(), in, r.SVFQWIn)
		}
	}
}

// TestAdaptiveDisableOption checks the sim-level plumbing of the §3.3
// monitor on a deliberately thrashing workload.
func TestAdaptiveDisableOption(t *testing.T) {
	thrash := *synth.Perlbmk()
	thrash.Name = "997.thrash"
	thrash.Seed = 999
	thrash.DepthTypicalWords = 3000
	thrash.DepthBurstWords = 4000

	plainIn, plainOut, _, err := TrafficOnlySVF(context.Background(), &thrash, core.Config{SizeBytes: 1 << 10}, 600_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	adaptIn, adaptOut, _, err := TrafficOnlySVF(context.Background(), &thrash, core.Config{SizeBytes: 1 << 10, AdaptiveDisable: true}, 600_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plainIn+plainOut == 0 {
		t.Fatal("thrash workload generated no SVF traffic")
	}
	if adaptIn+adaptOut >= plainIn+plainOut {
		t.Errorf("adaptive disable did not cut traffic: %d vs %d QW",
			adaptIn+adaptOut, plainIn+plainOut)
	}
}

// TestSVFAdaptiveTimingRun exercises the Options plumbing in a timing run.
func TestSVFAdaptiveTimingRun(t *testing.T) {
	r, err := Run(synth.Gzip(), Options{
		Policy: pipeline.PolicySVF, StackPorts: 2,
		SVFAdaptiveDisable: true, MaxInsts: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A healthy workload must not trip the monitor.
	if r.SVF.DisablePeriods != 0 {
		t.Errorf("gzip tripped the adaptive monitor %d times", r.SVF.DisablePeriods)
	}
}

// TestRSEEndToEnd runs the register-stack-engine comparator through the
// full pipeline and checks its §6 contrasts with the SVF.
func TestRSEEndToEnd(t *testing.T) {
	prof := synth.Crafty()
	const insts = 150_000
	svfRes, err := Run(prof, Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: insts})
	if err != nil {
		t.Fatal(err)
	}
	rseRes, err := Run(prof, Options{Policy: pipeline.PolicyRSE, StackPorts: 2, MaxInsts: insts})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(prof, Options{MaxInsts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if rseRes.RSE == nil {
		t.Fatal("RSE stats missing")
	}
	if rseRes.RSE.RegRefs == 0 {
		t.Error("RSE served no references")
	}
	// Both schemes beat the baseline on a call-heavy workload.
	if rseRes.Cycles() >= base.Cycles() {
		t.Errorf("RSE (%d cycles) should beat baseline (%d)", rseRes.Cycles(), base.Cycles())
	}
	if svfRes.Cycles() >= base.Cycles() {
		t.Errorf("SVF (%d cycles) should beat baseline (%d)", svfRes.Cycles(), base.Cycles())
	}
}

// TestRSEContextSwitchCostExceedsSVF: the register stack is architectural
// state — a context switch spills every allocated register, so its flush
// traffic must exceed the SVF's dirty-words-only flush.
func TestRSEContextSwitchCostExceedsSVF(t *testing.T) {
	prof := synth.Crafty()
	_, _, svfBytes, err := TrafficOnly(context.Background(), prof, pipeline.PolicySVF, 8<<10, 800_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rseBytes, err := TrafficOnly(context.Background(), prof, pipeline.PolicyRSE, 8<<10, 800_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if rseBytes <= svfBytes {
		t.Errorf("RSE flush (%d B/switch) should exceed the SVF's (%d)", rseBytes, svfBytes)
	}
}

// TestRSETrafficCoarserThanSVF: whole-frame overflow/underflow moves more
// data than the SVF's demand-driven per-word traffic on deep-recursion
// workloads.
func TestRSETrafficCoarserThanSVF(t *testing.T) {
	prof := synth.Gcc() // deep, oscillating stack: constant over/underflow
	svfIn, svfOut, _, err := TrafficOnly(context.Background(), prof, pipeline.PolicySVF, 2<<10, 600_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rseIn, rseOut, _, err := TrafficOnly(context.Background(), prof, pipeline.PolicyRSE, 2<<10, 600_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rseIn+rseOut <= svfIn+svfOut {
		t.Errorf("RSE traffic (%d QW) should exceed SVF's (%d QW) under deep recursion",
			rseIn+rseOut, svfIn+svfOut)
	}
}
