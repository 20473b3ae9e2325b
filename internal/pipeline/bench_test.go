package pipeline

import (
	"context"
	"testing"

	"svf/internal/bpred"
	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/regions"
	"svf/internal/synth"
	"svf/internal/trace"
)

// benchRawInsts is the per-iteration instruction budget for the raw
// pipeline benchmarks. Large enough to amortise warm-up, small enough
// that one iteration stays well under a second.
const benchRawInsts = 200_000

// benchPipeline drives the bare pipeline (no sim/experiment wrapper) over
// a synthetic workload and reports wall-clock simulation throughput. The
// trace is recorded once and each iteration replays the compact recording,
// as a trace-cache hit does, so the number measures the scheduler hot loop
// on the fetch path real runs take, not the workload generator.
func benchPipeline(b *testing.B, mkEnv func() Env) {
	b.Helper()
	if testing.Short() {
		b.Skip("pipeline benchmarks are skipped in -short mode")
	}
	prog, err := synth.BuildProgram(synth.Crafty())
	if err != nil {
		b.Fatal(err)
	}
	// Background is never done, so Record cannot fail.
	rec, _ := trace.Record(context.Background(), synth.NewGeneratorFor(prog), benchRawInsts, trace.MaxShapes)
	stream := rec.Replay(benchRawInsts)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		// Machine construction (cache arrays, SVF tables) is setup, not
		// the hot loop; keep it off the clock.
		b.StopTimer()
		p, err := New(mkEnv())
		if err != nil {
			b.Fatal(err)
		}
		stream.Reset()
		b.StartTimer()
		st, err := p.Run(context.Background(), stream, benchRawInsts)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/sec")
}

// BenchmarkPipelineRaw measures the scheduler hot loop on the Figure 5
// configuration (16-wide, infinite SVF, perfect front end) — the
// configuration the ISSUE's ≥3× insts/sec target is defined on.
func BenchmarkPipelineRaw(b *testing.B) {
	benchPipeline(b, func() Env {
		hier := must(cache.NewHierarchy(cache.DefaultHierarchyConfig()))
		return Env{
			Machine: SixteenWide(),
			Hier:    hier,
			Pred:    bpred.NewPerfect(),
			Layout:  regions.DefaultLayout(),
			Stack: StackStructs{
				Policy: PolicySVF,
				SVF:    must(core.New(core.Config{Infinite: true}, hier.DL1)),
			},
		}
	})
}

// BenchmarkPipelineRawBaseline is the same workload through the
// DL1-only baseline machine: the scheduler cost without SVF morphing.
func BenchmarkPipelineRawBaseline(b *testing.B) {
	benchPipeline(b, func() Env {
		hier := must(cache.NewHierarchy(cache.DefaultHierarchyConfig()))
		return Env{
			Machine: SixteenWide(),
			Hier:    hier,
			Pred:    bpred.NewPerfect(),
			Layout:  regions.DefaultLayout(),
		}
	})
}
