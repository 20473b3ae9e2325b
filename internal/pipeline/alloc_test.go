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

// allocTestInsts is enough instructions to exercise every hot-path
// structure (wheel wrap, overflow, store table churn, SVF morphing) while
// keeping each AllocsPerRun trial fast.
const allocTestInsts = 50_000

// allocTestSetup builds the BenchmarkPipelineRaw machine (16-wide,
// infinite SVF, perfect front end) and a replay of a compact recording to
// drive it, as a trace-cache hit serves one.
func allocTestSetup(t *testing.T) (Env, *trace.Replay) {
	t.Helper()
	prog, err := synth.BuildProgram(synth.Crafty())
	if err != nil {
		t.Fatal(err)
	}
	// Background is never done, so Record cannot fail.
	rec, _ := trace.Record(context.Background(), synth.NewGeneratorFor(prog), allocTestInsts, trace.MaxShapes)
	stream := rec.Replay(allocTestInsts)
	hier := must(cache.NewHierarchy(cache.DefaultHierarchyConfig()))
	env := Env{
		Machine: SixteenWide(),
		Hier:    hier,
		Pred:    bpred.NewPerfect(),
		Layout:  regions.DefaultLayout(),
		Stack: StackStructs{
			Policy: PolicySVF,
			SVF:    must(core.New(core.Config{Infinite: true}, hier.DL1)),
		},
	}
	return env, stream
}

// TestSteadyStateRunIsAllocationFree pins the tentpole's zero-allocation
// claim: once a machine's rings have grown to their working size, a full
// Reset+Run cycle — every fetch/dispatch/issue/commit step over 50k
// instructions — must not allocate at all. Any future slice append or
// interface box on the per-cycle path fails this immediately.
func TestSteadyStateRunIsAllocationFree(t *testing.T) {
	env, stream := allocTestSetup(t)
	p, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := p.Reset(env); err != nil {
			t.Fatal(err)
		}
		stream.Reset()
		if _, err := p.Run(context.Background(), stream, allocTestInsts); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow event-wheel buckets etc. to their steady-state sizes
	if avg := testing.AllocsPerRun(5, run); avg != 0 {
		t.Errorf("steady-state Reset+Run allocates %.1f objects per run, want 0", avg)
	}
}

// TestPooledRunIsAllocationFree covers the campaign path: Pool.Get /
// Run / Pool.Put must also be allocation-free once the pooled machine is
// warm, so per-cell cost in a sweep is pure simulation.
func TestPooledRunIsAllocationFree(t *testing.T) {
	env, stream := allocTestSetup(t)
	var pool Pool
	cycle := func() {
		p, err := pool.Get(env)
		if err != nil {
			t.Fatal(err)
		}
		stream.Reset()
		if _, err := p.Run(context.Background(), stream, allocTestInsts); err != nil {
			t.Fatal(err)
		}
		pool.Put(p)
	}
	cycle() // first Get builds the machine; later cycles must recycle it
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 {
		t.Errorf("pooled Get+Run+Put allocates %.1f objects per run, want 0", avg)
	}
}
