package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/synth"
)

const cacheTestInsts = 20_000

// Regression: programCache used to be keyed by prof.ID() alone, so a
// custom or mutated profile sharing an ID with another profile silently
// received the other profile's cached program.
func TestProgramForDistinguishesProfilesSharingID(t *testing.T) {
	a := synth.Gzip()
	b := *a
	b.Seed += 1 // same ID, different workload contents
	if a.ID() != b.ID() {
		t.Fatalf("test setup: IDs differ (%q vs %q)", a.ID(), b.ID())
	}
	pa, err := ProgramFor(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ProgramFor(&b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("distinct profiles sharing an ID were served the same cached program")
	}
	pa2, err := ProgramFor(a)
	if err != nil {
		t.Fatal(err)
	}
	if pa2 != pa {
		t.Error("identical profile contents should hit the program cache")
	}
}

// Callers that miss the program cache together must share one build: each
// would otherwise run BuildProgram's calibration passes and get a program
// of its own.
func TestProgramForSingleFlight(t *testing.T) {
	prof := synth.Crafty().WithInput("x", 4242)
	const callers = 8
	progs := make([]*synth.Program, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := ProgramFor(prof)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p: want one shared build", i, p, progs[0])
		}
	}
}

// A failed build leaves no entry behind: every later caller builds afresh
// and gets the error, never a nil program.
func TestProgramForFailedBuildIsNotCached(t *testing.T) {
	prof := synth.Gzip().WithInput("invalid", 1)
	prof.MemFrac = 2
	for i := 0; i < 2; i++ {
		if p, err := ProgramFor(prof); err == nil || p != nil {
			t.Fatalf("call %d: ProgramFor = %p, %v; want the build's error", i, p, err)
		}
		if _, ok := programCache.Load(prof.Fingerprint()); ok {
			t.Fatalf("call %d: the failed build left a cache entry", i)
		}
	}
}

// A cached Result must be identical to a fresh, uncached run, and handing
// out a result must not let the caller corrupt the cache.
func TestRunCacheDeterminism(t *testing.T) {
	prof := synth.Crafty()
	opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: cacheTestInsts}
	fresh, err := Run(prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRunCache()
	first, err := c.Do(context.Background(), RunCell(prof, &opt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, first.Run) {
		t.Error("cached run differs from a fresh run")
	}
	// Mutate the handed-out copy, then re-fetch: the cache must be intact.
	first.Run.Pipe.Cycles = 0
	first.Run.SVF.MorphedLoads = 0
	second, err := c.Do(context.Background(), RunCell(prof, &opt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, second.Run) {
		t.Error("mutating a returned Result corrupted the cached entry")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}
}

// Concurrent identical requests must share one in-flight simulation.
func TestRunCacheDedupsConcurrentRequests(t *testing.T) {
	c := NewRunCache()
	prof := synth.Gzip()
	opt := Options{MaxInsts: cacheTestInsts}
	const n = 8
	results := make([]Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), RunCell(prof, &opt))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits+st.Shared != n-1 {
		t.Errorf("hits+shared = %d, want %d", st.Hits+st.Shared, n-1)
	}
}

// Equivalent configurations must canonicalize to the same key: an explicit
// DL1Ports override equal to the machine's default, and a machine renamed
// for display, both describe the same simulation.
func TestRunCacheCanonicalKeys(t *testing.T) {
	c := NewRunCache()
	prof := synth.Gzip()
	if _, err := c.Do(context.Background(), RunCell(prof, &Options{Machine: pipeline.SixteenWide(), DL1Ports: 2, MaxInsts: cacheTestInsts})); err != nil {
		t.Fatal(err)
	}
	renamed := pipeline.SixteenWide() // DL1Ports defaults to 2
	renamed.Name = "16-wide (relabeled)"
	if _, err := c.Do(context.Background(), RunCell(prof, &Options{Machine: renamed, MaxInsts: cacheTestInsts})); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want the equivalent configs to share one entry", st)
	}
	// A behavioral difference must be a different key.
	if _, err := c.Do(context.Background(), RunCell(prof, &Options{Machine: pipeline.SixteenWide(), DL1Ports: 1, MaxInsts: cacheTestInsts})); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 after a behaviorally-different config", st.Misses)
	}
}

// Failed runs are not cached: a retry re-executes.
func TestRunCacheDoesNotCacheErrors(t *testing.T) {
	c := NewRunCache()
	prof := synth.Gzip()
	bad := Options{Predictor: "bogus", MaxInsts: 1000}
	for i := 0; i < 2; i++ {
		if _, err := c.Do(context.Background(), RunCell(prof, &bad)); err == nil {
			t.Fatal("expected an error for an unknown predictor")
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Errors != 2 {
		t.Errorf("stats = %+v, want both attempts executed", st)
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d; configuration errors must not be retried", st.Retries)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d, failed runs must not be resident", st.Entries)
	}
}

// Traffic and characterisation runs memoize under the same cache.
func TestRunCacheTrafficAndCharacterize(t *testing.T) {
	c := NewRunCache()
	prof := synth.Crafty()
	first, err := c.Do(context.Background(), TrafficCell(prof, pipeline.PolicySVF, 8<<10, 100_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Do(context.Background(), TrafficCell(prof, pipeline.PolicySVF, 8<<10, 100_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("cached traffic %+v differs from first run %+v", second, first)
	}
	ch1, err := c.Characterize(context.Background(), prof, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := c.Characterize(context.Background(), prof, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if ch1 != ch2 {
		t.Error("characterisation should be shared, not recomputed")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 2 misses + 2 hits across kinds", st)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.String() == "" {
		t.Error("empty stats summary")
	}
}
