package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"svf/internal/synth"
)

// Satellite regression for `-cache-stats` exactness: every cache counter is
// atomic, and the single-flight bookkeeping partitions requests exactly —
// under arbitrary concurrency, requests = hits + shared + misses with no
// event lost or double-counted. Run under `go test -race` in CI.
func TestRunCacheCountersExactUnderConcurrency(t *testing.T) {
	const (
		goroutines = 16
		cells      = 8
		rounds     = 4
	)
	c := NewRunCache()
	var executions atomic.Uint64
	c.SetExecutor(stubRuns{run: func(_ context.Context, prof *synth.Profile, opt Options) (*Result, error) {
		executions.Add(1)
		return &Result{Bench: prof.ID()}, nil
	}})

	// Distinct MaxInsts values make distinct cells on one profile.
	prof := synth.Gzip()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for cell := 0; cell < cells; cell++ {
					opt := Options{MaxInsts: 1000 * (cell + 1)}
					if _, err := c.Do(context.Background(), RunCell(prof, &opt)); err != nil {
						t.Errorf("cell %d: %v", cell, err)
					}
				}
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	wantRequests := uint64(goroutines * rounds * cells)
	if got := st.Requests(); got != wantRequests {
		t.Errorf("requests = %d, want %d", got, wantRequests)
	}
	if st.Misses != cells {
		t.Errorf("misses = %d, want exactly one execution per cell (%d)", st.Misses, cells)
	}
	if st.Misses != executions.Load() {
		t.Errorf("misses = %d but the executor ran %d times", st.Misses, executions.Load())
	}
	if st.Hits+st.Shared != wantRequests-cells {
		t.Errorf("hits(%d) + shared(%d) = %d, want %d: every non-miss must be counted exactly once",
			st.Hits, st.Shared, st.Hits+st.Shared, wantRequests-cells)
	}
	if st.Errors != 0 || st.Retries != 0 || st.Latched != 0 {
		t.Errorf("stats = %+v, want no errors, retries or latches", st)
	}
	if st.Entries != cells {
		t.Errorf("entries = %d, want %d", st.Entries, cells)
	}
}
