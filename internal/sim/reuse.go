package sim

// Run-to-run reuse. A campaign is thousands of runs drawn from a small
// set of workloads and machine shapes, so almost everything a run builds
// is rebuilt identically moments later. Two process-wide stores exploit
// that:
//
//   - traceCache records each workload's generator output once, as a
//     compact trace.Recording, and replays a prefix of it for every later
//     run of that budget or less, so only the first (or a longer) run of
//     a profile pays for generator execution.
//   - machinePool / hierPool recycle pipeline and cache-hierarchy
//     allocations across runs: Reset is a handful of memclrs over rings
//     that are already the right size, and a reset machine is
//     bit-identical to a fresh one (the golden fixture holds it to that).
//
// Both stores are transparent: a budget-evicted or oversize trace falls
// back to live generation, and a faulted run's machine is dropped rather
// than pooled.

import (
	"context"
	"sync"

	"svf/internal/cache"
	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/trace"
	"svf/internal/tracecache"
)

// DefaultTraceCacheBytes is the recorded-trace budget when no override is
// set. A recording takes about 5–6 bytes per instruction, so this holds
// all 21 campaign workloads (17 benchmark inputs and 4 families) at the
// default 2M-instruction traffic budget, about 216 MiB together.
const DefaultTraceCacheBytes = 256 << 20

var traceCache = tracecache.New(DefaultTraceCacheBytes)

// SetTraceCacheBudget rebounds the process-wide recorded-trace cache (the
// -trace-cache-mb flag lands here). Non-positive disables recording.
func SetTraceCacheBudget(bytes int64) { traceCache.SetBudget(bytes) }

// TraceCacheStats exposes the trace cache's counters (tests, status dumps).
func TraceCacheStats() tracecache.Stats { return traceCache.Stats() }

// cachedStream returns prog's instruction stream for a run of n: a replay
// of the workload's recording when it covers n, else a fresh recording of
// the first n when the budget allows, else the live generator. A panic
// while recording (a faulty profile) abandons the recording and falls back
// to the live generator, so the panic surfaces inside the supervised run
// exactly as it did before the cache existed. A recording polls ctx and
// stops with its error once the run is cancelled.
func cachedStream(ctx context.Context, prog *synth.Program, fp string, n int) (trace.Stream, error) {
	return traceCache.Stream(fp, n,
		func(maxShapes int) (*trace.Recording, error) {
			defer func() { _ = recover() }()
			return trace.Record(ctx, synth.NewGeneratorFor(prog), n, maxShapes)
		},
		func() trace.Stream { return synth.NewGeneratorFor(prog) },
	)
}

// machinePool recycles pipelines across runs; Reset re-fits whatever
// rings already match the next configuration.
var machinePool pipeline.Pool

// hierPool recycles cache hierarchies, keyed by exact configuration so a
// recycled hierarchy's geometry (and thus behaviour) matches a fresh one.
var hierPool = struct {
	sync.Mutex
	free map[cache.HierarchyConfig][]*cache.Hierarchy
	n    int
}{free: make(map[cache.HierarchyConfig][]*cache.Hierarchy)}

// hierPoolMax bounds retained hierarchies across all configurations.
const hierPoolMax = 16

// getHierarchy returns a cold hierarchy for cfg, recycling a pooled one
// when available.
func getHierarchy(cfg cache.HierarchyConfig) (*cache.Hierarchy, error) {
	hierPool.Lock()
	if l := hierPool.free[cfg]; len(l) > 0 {
		h := l[len(l)-1]
		l[len(l)-1] = nil
		hierPool.free[cfg] = l[:len(l)-1]
		hierPool.n--
		hierPool.Unlock()
		h.Reset()
		return h, nil
	}
	hierPool.Unlock()
	return cache.NewHierarchy(cfg)
}

// putHierarchy returns a hierarchy to the pool once its stats have been
// harvested. Callers must not touch h afterwards.
func putHierarchy(cfg cache.HierarchyConfig, h *cache.Hierarchy) {
	hierPool.Lock()
	if hierPool.n < hierPoolMax {
		hierPool.free[cfg] = append(hierPool.free[cfg], h)
		hierPool.n++
	}
	hierPool.Unlock()
}
