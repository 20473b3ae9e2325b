//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// TestParseJobSpecAllocs guards submission parsing: the allocations per
// ParseJobSpec of an svfd-fresh job body (8 run cells, bench × policy ×
// ports) may not grow. Of the 127, RunCellKey makes 64, the JSON decoder
// about 54 and the resolved Options 8; resolving a bench name makes none,
// since every cell shares synth's bundled profile.
func TestParseJobSpecAllocs(t *testing.T) {
	var spec JobSpec
	profs := synth.Benchmarks()
	for i := 0; i < 8; i++ {
		ports := 1 + i%2
		opt := &sim.Options{Policy: pipeline.StackPolicy(i % 3), DL1Ports: ports, MaxInsts: 20_000 + 97*i}
		if opt.Policy != pipeline.PolicyNone {
			opt.StackPorts = ports
		}
		spec.Cells = append(spec.Cells, &CellSpec{Kind: CellRun, Bench: profs[i].ID(), Opt: opt})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const max = 127
	if got := testing.AllocsPerRun(50, func() {
		if _, err := ParseJobSpec(body); err != nil {
			t.Fatal(err)
		}
	}); got > max {
		t.Errorf("ParseJobSpec allocates %v times per 8-cell body, want at most %v", got, max)
	}
}

// TestJobRetainedHeap guards what a job keeps once it is done: 2,000 jobs
// of 8 cells drawn from 16 distinct cells, answered by a stub executor, may
// grow the live heap by at most maxPerJob bytes each. A job shares the
// server's resolved cells, so it keeps its ID, its trace ID, its spec's
// cell pointers and one status per cell: 719–761 B when measured, and
// maxPerJob is twice 760. Before cells were interned, a job kept its own parsed copy
// of every cell and a mutex and channel per cell: 12,479 B.
func TestJobRetainedHeap(t *testing.T) {
	const jobs, maxPerJob = 2000, 1520
	cache := sim.NewRunCache()
	cache.SetExecutor(stubExec{})
	s, err := New(Config{
		Cache:         cache,
		MaxJobs:       jobs,
		MaxQueueBytes: 1 << 30,
		Obs:           &sim.Observer{Registry: telemetry.NewRegistry(), Progress: telemetry.NewProgress()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	var cells []string
	for _, p := range synth.Benchmarks()[:8] {
		for _, opt := range []string{`"Policy":0`, `"Policy":1,"StackPorts":2`} {
			cells = append(cells, fmt.Sprintf(`{"kind":"run","bench":%q,"opt":{%s,"MaxInsts":20000}}`, p.ID(), opt))
		}
	}
	rng := rand.New(rand.NewSource(1))
	liveHeap := func() int64 {
		// Twice, so sync.Pool victims are dropped too.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	for k := 0; k < jobs; k++ {
		pick := make([]string, 0, 8)
		for _, i := range rng.Perm(len(cells))[:8] {
			pick = append(pick, cells[i])
		}
		body := `{"cells":[` + strings.Join(pick, ",") + `]}`
		spec, err := ParseJobSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if res := s.SubmitTraced(spec, len(body), telemetry.SpanContext{}); res.shed != nil || res.deduped {
			t.Fatalf("job %d: shed %v, deduped %v", k, res.shed, res.deduped)
		}
	}
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	perJob := (liveHeap() - before) / jobs
	runtime.KeepAlive(s)
	t.Logf("%d B of live heap per job", perJob)
	if perJob > maxPerJob {
		t.Errorf("each job retains %d B of heap, want at most %d", perJob, maxPerJob)
	}
}
