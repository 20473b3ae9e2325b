package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/isa"
	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/regions"
	"svf/internal/service"
	"svf/internal/sim"
	"svf/internal/synth"
)

// Per-layer microbenchmarks: each times one layer's public functions over
// the running workload's own inputs — its profiles' instruction streams,
// its cells, its job bodies and its journal record sizes — so every
// workload reports them.

// cellRef is one simulation cell of any workload: a timing run when opt is
// set, else a functional traffic run.
type cellRef struct {
	prof      *synth.Profile
	opt       *sim.Options
	policy    pipeline.StackPolicy
	sizeBytes int
	maxInsts  int
	ctxPeriod uint64
}

// key is the cell's canonical identity, as the run cache and svfd derive it.
func (c cellRef) key() string {
	if c.opt != nil {
		return sim.RunCellKey(c.prof, *c.opt)
	}
	return sim.TrafficCellKey(c.prof, c.policy, c.sizeBytes, c.maxInsts, c.ctxPeriod)
}

// spec renders the cell as it is submitted to svfd. Every profile the
// workloads use is bundled, so it travels by name.
func (c cellRef) spec() *service.CellSpec {
	s := &service.CellSpec{Bench: c.prof.ID()}
	if c.opt != nil {
		s.Kind, s.Opt = service.CellRun, c.opt
		return s
	}
	s.Kind = service.CellTraffic
	s.Policy = c.policy.String()
	s.SizeBytes, s.MaxInsts, s.CtxPeriod = c.sizeBytes, c.maxInsts, c.ctxPeriod
	return s
}

// cellsPerJob is the svfd workloads' job size; campaign cells are grouped
// the same way when timing the spec parser.
const cellsPerJob = 8

// jobBody encodes cells as one POST /v1/jobs payload.
func jobBody(cells []cellRef) ([]byte, error) {
	spec := service.JobSpec{}
	for _, c := range cells {
		spec.Cells = append(spec.Cells, c.spec())
	}
	return json.Marshal(spec)
}

// jobBodies groups cells into job payloads of cellsPerJob.
func jobBodies(cells []cellRef) ([][]byte, error) {
	var bodies [][]byte
	for i := 0; i < len(cells); i += cellsPerJob {
		body, err := jobBody(cells[i:min(i+cellsPerJob, len(cells))])
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// microInputs are one workload's inputs to the microbenchmarks.
type microInputs struct {
	profiles    []*synth.Profile
	cells       []cellRef
	bodies      [][]byte
	recordSizes []int
	dir         string // scratch directory for the journal benchmark
}

// minBenchTime is how long each microbenchmark repeats its input set.
const minBenchTime = 50 * time.Millisecond

// repeatTimed calls pass until at least minBenchTime has elapsed and
// returns the total time and the number of passes.
func repeatTimed(pass func()) (time.Duration, int) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < minBenchTime {
		pass()
		n++
	}
	return time.Since(start), n
}

// microbench returns core.ns_per_access, cache.ns_per_access,
// runcache.key_us, service.parse_us, journal.append_p50_us and
// journal.replay_s.
func microbench(in microInputs) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	if m["core.ns_per_access"], m["cache.ns_per_access"], err = accessBench(in.profiles); err != nil {
		return nil, err
	}

	d, n := repeatTimed(func() {
		for _, c := range in.cells {
			_ = c.key()
		}
	})
	m["runcache.key_us"] = ratio(float64(d.Nanoseconds())/1e3, float64(n*len(in.cells)))

	var parseErr error
	d, n = repeatTimed(func() {
		for _, b := range in.bodies {
			if _, err := service.ParseJobSpec(b); err != nil && parseErr == nil {
				parseErr = err
			}
		}
	})
	if parseErr != nil {
		return nil, fmt.Errorf("parse job body: %w", parseErr)
	}
	m["service.parse_us"] = ratio(float64(d.Nanoseconds())/1e3, float64(n*len(in.bodies)))

	if m["journal.append_p50_us"], m["journal.replay_s"], err = journalBench(in.dir, in.recordSizes); err != nil {
		return nil, err
	}
	return m, nil
}

// accessStreamInsts is how many instructions of each profile's stream the
// access benchmarks replay.
const accessStreamInsts = 50_000

// stackOp is one step of the SVF's view of a stream: an $sp update or a
// stack-region reference.
type stackOp struct {
	addr, newSP     uint64
	spUpdate        bool
	write, rerouted bool
}

type dataOp struct {
	addr  uint64
	write bool
}

// accessBench times core.SVF.Access over each profile's stack references
// and the DL1's cache.Cache.Access over its other data references, driving
// the SVF exactly as the functional traffic loop does. It returns host
// nanoseconds per in-window SVF access and per DL1 access.
func accessBench(profs []*synth.Profile) (coreNS, cacheNS float64, err error) {
	layout := regions.DefaultLayout()
	stacks := make([][]stackOp, len(profs))
	datas := make([][]dataOp, len(profs))
	for i, p := range profs {
		prog, err := sim.ProgramFor(p)
		if err != nil {
			return 0, 0, err
		}
		spKnown := false
		var sp uint64
		for _, in := range synth.TraceFor(prog, accessStreamInsts) {
			switch {
			case in.Kind == isa.KindSPAdjust:
				if spKnown {
					old := sp
					sp = uint64(int64(sp) + int64(in.Imm))
					stacks[i] = append(stacks[i], stackOp{addr: old, newSP: sp, spUpdate: true})
				}
			case in.IsMem():
				if in.SPRelative() && !spKnown {
					sp = in.Addr - uint64(int64(in.Imm))
					spKnown = true
					stacks[i] = append(stacks[i], stackOp{addr: sp, newSP: sp, spUpdate: true})
				}
				write := in.Kind == isa.KindStore
				if layout.InStack(in.Addr) {
					stacks[i] = append(stacks[i], stackOp{addr: in.Addr, write: write, rerouted: !in.SPRelative()})
				} else {
					datas[i] = append(datas[i], dataOp{addr: in.Addr, write: write})
				}
			}
		}
	}

	var svfTime time.Duration
	var svfAccesses int
	for svfTime < minBenchTime {
		for _, ops := range stacks {
			hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
			if err != nil {
				return 0, 0, err
			}
			svf, err := core.New(core.Config{SizeBytes: 8 << 10}, hier.DL1)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			for _, op := range ops {
				if op.spUpdate {
					svf.NotifySPUpdate(op.addr, op.newSP)
				} else if svf.Contains(op.addr) {
					svf.Access(op.addr, op.write, op.rerouted)
					svfAccesses++
				}
			}
			svfTime += time.Since(t0)
		}
		if svfAccesses == 0 {
			break
		}
	}

	var dl1Time time.Duration
	var dl1Accesses int
	for dl1Time < minBenchTime {
		for _, ops := range datas {
			hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			for _, op := range ops {
				hier.DL1.Access(op.addr, op.write)
			}
			dl1Time += time.Since(t0)
			dl1Accesses += len(ops)
		}
		if dl1Accesses == 0 {
			break
		}
	}
	return ratio(float64(svfTime.Nanoseconds()), float64(svfAccesses)),
		ratio(float64(dl1Time.Nanoseconds()), float64(dl1Accesses)), nil
}

// journalRecords bounds the journal benchmark: each append waits for an
// fsync, so this keeps it well under a second on an ordinary disk.
const journalRecords = 512

// journalBench appends up to journalRecords records of the workload's sizes
// from two goroutines (the svfd workloads' client count, so group commit
// sees the same concurrency) and returns the median append latency, then
// times reopening — replaying — the journal it wrote.
func journalBench(dir string, sizes []int) (appendP50us, replayS float64, err error) {
	jdir, err := os.MkdirTemp(dir, "journal-bench-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(jdir)
	j, _, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return 0, 0, err
	}
	n := min(len(sizes), journalRecords)
	lat := make([]float64, n)
	errs := make([]error, 2)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				rec := journal.Record{Kind: "run", Key: fmt.Sprintf("bench|%d", i), Data: make([]byte, sizes[i])}
				t0 := time.Now()
				if err := j.Append(rec); err != nil {
					errs[g] = err
					return
				}
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	replay, err := timeJournalOpen(jdir)
	return median(lat), replay, err
}

// timeJournalOpen returns how long journal.Open takes to replay dir.
func timeJournalOpen(dir string) (float64, error) {
	t0 := time.Now()
	j, _, err := journal.Open(dir, journal.Options{})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), j.Close()
}
