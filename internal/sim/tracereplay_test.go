package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/isa"
	"svf/internal/pipeline"
	"svf/internal/regions"
	"svf/internal/synth"
	"svf/internal/trace"
)

// replayInsts is the per-run budget for the replay-equivalence tests:
// big enough to exercise wheel wrap, store-table churn and SVF morphing,
// small enough that 16 profiles × 3 runs stay quick.
const replayInsts = 40_000

// recordProgram records prog's first n instructions under a context that
// is never cancelled.
func recordProgram(prog *synth.Program, n, maxShapes int) *trace.Recording {
	rec, err := trace.Record(context.Background(), synth.NewGeneratorFor(prog), n, maxShapes)
	if err != nil {
		panic(err)
	}
	return rec
}

// replayOpt exercises the stack structure and port arbitration so the
// comparison covers more than the bare scheduler.
func replayOpt() Options {
	return Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: replayInsts}
}

// prefixBudgets is how many seeded budgets below replayInsts each profile
// runs as a prefix of its recording.
const prefixBudgets = 3

// switchEveryInsts bounds the prefix of a traffic run that takes a context
// switch every instruction or two.
const switchEveryInsts = 4_000

// generatorRun executes prof with a live generator, bypassing the trace
// cache entirely (RunStream never consults it).
func generatorRun(t *testing.T, prof *synth.Profile, opt Options) *Result {
	t.Helper()
	prog, err := ProgramFor(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), prof.ID(), synth.NewGeneratorFor(prog), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// prefixTraffic is one functional traffic run at a prefix budget.
type prefixTraffic struct {
	policy pipeline.StackPolicy
	n      int
	period uint64
	got    trafficCell
}

func (c prefixTraffic) run(t *testing.T, prof *synth.Profile) trafficCell {
	t.Helper()
	in, out, cb, err := TrafficOnly(context.Background(), prof, c.policy, 2<<10, c.n, c.period)
	if err != nil {
		t.Fatal(err)
	}
	return trafficCell{in, out, cb}
}

// stepTraffic is c's functional traffic loop as it was before it skipped
// instructions: it steps every instruction of s, takes a context switch on
// the instruction whose commit reaches the next period, and drives the
// stack side with each load, store and $sp adjustment.
func stepTraffic(t *testing.T, s trace.Stream, c prefixTraffic) trafficCell {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(c.policy, core.Config{SizeBytes: 2 << 10}, hier)
	if err != nil {
		t.Fatal(err)
	}
	layout := regions.DefaultLayout()
	var in isa.Inst
	nextCtx := c.period
	for committed := uint64(1); committed <= uint64(c.n) && s.Next(&in); committed++ {
		if nextCtx > 0 && committed >= nextCtx {
			st.ContextSwitch()
			nextCtx += c.period
		}
		switch {
		case in.Kind == isa.KindSPAdjust:
			err = st.AdjustSP(&in)
		case in.IsMem():
			if in.SPRelative() {
				err = st.AnchorSP(&in)
			}
			if rt := st.Route(&in, layout.InStack(in.Addr)); rt != pipeline.RouteDL1 {
				st.Access(rt, &in, !in.SPRelative())
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	qwIn, qwOut, ctxBytes := st.Traffic()
	return trafficCell{qwIn, qwOut, ctxBytes}
}

// TestTraceReplayMatchesGenerator holds the trace cache to observational
// equivalence: for every Table 1 SPEC profile and every stack-stress
// family, a run fed by the recorded trace must produce byte-identical
// stats — pipeline counters, every cache level, stack-structure traffic —
// to a run fed by the live generator. That holds at the recorded budget
// and at seeded random budgets below it, which replay a prefix of the one
// recording, both through the timing pipeline and the traffic loop.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	profiles := append(synth.Benchmarks(), synth.Families()...)
	if len(profiles) < 16 {
		t.Fatalf("expected ≥16 profiles (12 SPEC + 4 families), got %d", len(profiles))
	}
	for p, prof := range profiles {
		prof, seed := prof, int64(p+1)
		t.Run(prof.ID(), func(t *testing.T) {
			want := generatorRun(t, prof, replayOpt())

			// First cached run records the trace and replays the buffer.
			got1, err := Run(prof, replayOpt())
			if err != nil {
				t.Fatal(err)
			}
			// Second run replays the recorded entry.
			hits := traceCache.Stats().Hits
			got2, err := Run(prof, replayOpt())
			if err != nil {
				t.Fatal(err)
			}
			if traceCache.Stats().Hits != hits+1 {
				t.Fatal("second run did not replay a recorded trace")
			}

			// The generator-fed result came through RunStream, whose
			// identity differs only in fields the stats must not depend on.
			for i, got := range []*Result{got1, got2} {
				if got.Bench != want.Bench {
					t.Fatalf("bench name mismatch: %q vs %q", got.Bench, want.Bench)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replayed run %d diverges from generator-fed run:\n got %+v\nwant %+v", i+1, got, want)
				}
			}

			// Shorter budgets replay a prefix of the recording.
			rng := rand.New(rand.NewSource(seed))
			var cells []prefixTraffic
			for k := 0; k < prefixBudgets; k++ {
				opt := replayOpt()
				opt.MaxInsts = 1 + rng.Intn(replayInsts-1)
				hits := traceCache.Stats().Hits
				got, err := Run(prof, opt)
				if err != nil {
					t.Fatal(err)
				}
				if traceCache.Stats().Hits != hits+1 {
					t.Fatalf("timing run at %d insts did not replay a prefix", opt.MaxInsts)
				}
				if want := generatorRun(t, prof, opt); !reflect.DeepEqual(got, want) {
					t.Errorf("prefix run at %d insts diverges from generator-fed run:\n got %+v\nwant %+v", opt.MaxInsts, got, want)
				}
				// Each policy meets a random period and periods 1 and 2,
				// one per budget; 1 and 2 put context switches on the
				// instructions the traffic loop skips and at the stream's
				// end. A switch flushes the structure, so a switch per
				// instruction or two runs on a shorter prefix.
				periods := []uint64{1, 2, uint64(1 + rng.Intn(opt.MaxInsts))}
				for i, policy := range []pipeline.StackPolicy{pipeline.PolicySVF, pipeline.PolicyStackCache, pipeline.PolicyRSE} {
					c := prefixTraffic{policy: policy, n: opt.MaxInsts, period: periods[(i+k)%len(periods)]}
					if c.period <= 2 {
						c.n = min(c.n, switchEveryInsts)
					}
					hits := traceCache.Stats().Hits
					c.got = c.run(t, prof)
					if traceCache.Stats().Hits != hits+1 {
						t.Fatalf("traffic run at %d insts did not replay a prefix", c.n)
					}
					cells = append(cells, c)
				}
			}
			// The references: with recording disabled every traffic run
			// streams live, and stepTraffic steps each instruction of the
			// same prefix.
			prog, err := ProgramFor(prof)
			if err != nil {
				t.Fatal(err)
			}
			rec := recordProgram(prog, replayInsts, trace.MaxShapes)
			SetTraceCacheBudget(0)
			defer SetTraceCacheBudget(DefaultTraceCacheBytes)
			for _, c := range cells {
				if want := c.run(t, prof); c.got != want {
					t.Errorf("%s traffic at %d insts, period %d, diverges from generator-fed run: got %+v, want %+v", c.policy, c.n, c.period, c.got, want)
				}
				if want := stepTraffic(t, rec.Replay(c.n), c); c.got != want {
					t.Errorf("%s traffic at %d insts, period %d, diverges from a step per instruction: got %+v, want %+v", c.policy, c.n, c.period, c.got, want)
				}
			}
		})
	}
}

// TestTraceEvictionFallsBackToGenerator pins the transparency guarantee:
// a capacity-evicted (or never-recordable) trace silently regenerates,
// with identical results.
func TestTraceEvictionFallsBackToGenerator(t *testing.T) {
	defer SetTraceCacheBudget(DefaultTraceCacheBytes)
	profiles := append(synth.Families(), synth.Benchmarks()...)
	a := profiles[0]

	// Reference results, recorded under a roomy budget.
	SetTraceCacheBudget(DefaultTraceCacheBytes)
	wantA, err := Run(a, replayOpt())
	if err != nil {
		t.Fatal(err)
	}

	// A budget that admits the worst case of one replayInsts recording
	// naming up to 4,096 shapes (the profiles name at most about 2,500),
	// so every profile records, and that holds a few real recordings.
	// Recording the other profiles in turn must evict a's, the least
	// recently used.
	budget := int64(replayInsts)*12 + 4096*33
	if got := trace.ShapeLimit(replayInsts, budget); got != 4096 {
		t.Fatalf("ShapeLimit = %d, want 4096", got)
	}
	SetTraceCacheBudget(0) // empty the cache
	SetTraceCacheBudget(budget)
	if _, err := Run(a, replayOpt()); err != nil {
		t.Fatal(err)
	}
	if st := traceCache.Stats(); st.Entries != 1 {
		t.Fatalf("%d traces resident after a's run, want a's alone", st.Entries)
	}
	evictions := traceCache.Stats().Evictions
	for _, p := range profiles[1:] {
		if _, err := Run(p, replayOpt()); err != nil {
			t.Fatal(err)
		}
		if traceCache.Stats().Evictions != evictions {
			break
		}
	}
	if traceCache.Stats().Evictions == evictions {
		t.Fatalf("recording %d more profiles in turn evicted nothing", len(profiles)-1)
	}
	misses := traceCache.Stats().Misses
	evicted, err := Run(a, replayOpt())
	if err != nil {
		t.Fatal(err)
	}
	if traceCache.Stats().Misses != misses+1 {
		t.Fatal("a's trace was still resident after the eviction")
	}
	if !reflect.DeepEqual(evicted, wantA) {
		t.Errorf("post-eviction run diverges:\n got %+v\nwant %+v", evicted, wantA)
	}

	// Recording disabled entirely: still identical.
	SetTraceCacheBudget(0)
	bare, err := Run(a, replayOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, wantA) {
		t.Errorf("cache-disabled run diverges:\n got %+v\nwant %+v", bare, wantA)
	}
}

// TestUnrecordableWorkloadStreamsLive covers a workload with more
// distinct shapes than its recording may name: it is not recorded, and
// its runs stream from the live generator with identical results. The
// budget leaves room for the worst case of a replayInsts recording's ids
// and addresses, 12 bytes per instruction, and 100 shapes of 33 bytes;
// crafty's first replayInsts instructions have several hundred.
func TestUnrecordableWorkloadStreamsLive(t *testing.T) {
	defer SetTraceCacheBudget(DefaultTraceCacheBytes)
	prof := synth.Crafty()
	want := generatorRun(t, prof, replayOpt())
	budget := int64(replayInsts)*12 + 100*33
	if got := trace.ShapeLimit(replayInsts, budget); got != 100 {
		t.Fatalf("ShapeLimit = %d, want 100", got)
	}
	SetTraceCacheBudget(0) // empty the cache
	SetTraceCacheBudget(budget)
	for run := 1; run <= 2; run++ {
		misses := traceCache.Stats().Misses
		got, err := Run(prof, replayOpt())
		if err != nil {
			t.Fatal(err)
		}
		if traceCache.Stats().Misses != misses+1 {
			t.Fatalf("run %d was served from a recording", run)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d diverges from the generator-fed run:\n got %+v\nwant %+v", run, got, want)
		}
	}
	if st := traceCache.Stats(); st.Entries != 0 {
		t.Errorf("%d recordings resident, want none", st.Entries)
	}
}
