package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"svf/internal/experiments"
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// campaignParallel is the campaigns' Parallel setting: one simulation per
// core of the 2-core machines the benchmark is sized for.
const campaignParallel = 2

// campaignSpec fixes one campaign workload: the profiles its set-up builds,
// its experiment configuration, and the experiments it runs.
type campaignSpec struct {
	// passSeconds is one cold pass's host time, set-up included, on a
	// 2-core 2.1 GHz Xeon. A run makes -seconds/passSeconds passes: the
	// work is fixed by -seconds, the same on both sides of a comparison.
	passSeconds float64
	profiles    func(short bool) []*synth.Profile
	config      func(short bool) experiments.Config
	// run executes the campaign and returns its results by name (each is
	// hashed for the correctness gate) and, for a graded campaign, the
	// scorecard's passed and total claim counts.
	run func(cfg experiments.Config) (outputs map[string]any, passed, claims int, err error)
}

var campaigns = map[string]campaignSpec{
	// The reproduction as people run it: `svfexp -exp scorecard` at its
	// default budgets, 228 simulations.
	"campaign-timing": {
		passSeconds: 7.5,
		profiles:    timingProfiles,
		config: func(short bool) experiments.Config {
			if short {
				return experiments.Config{MaxInsts: 20_000, TrafficInsts: 3 * experiments.CtxSwitchPeriod, Benchmarks: timingProfiles(true)}
			}
			return experiments.Config{Benchmarks: timingProfiles(false)}
		},
		run: func(cfg experiments.Config) (map[string]any, int, int, error) {
			sc, err := experiments.RunScorecard(cfg)
			if err != nil {
				return nil, 0, 0, err
			}
			return map[string]any{"scorecard": sc}, sc.Passed(), len(sc.Entries), nil
		},
	},
	// Functional traffic loops only, at the default traffic budget: the
	// pipeline is bypassed, so a hot-loop change must read as no change
	// here.
	"campaign-traffic": {
		passSeconds: 5,
		profiles: func(short bool) []*synth.Profile {
			if short {
				return append(timingProfiles(true), synth.Families()...)
			}
			return append(synth.BenchmarkInputs(), synth.Families()...)
		},
		config: func(short bool) experiments.Config {
			if short {
				return experiments.Config{TrafficInsts: 3 * experiments.CtxSwitchPeriod, Benchmarks: timingProfiles(true)}
			}
			return experiments.Config{}
		},
		run: func(cfg experiments.Config) (map[string]any, int, int, error) {
			t3, err := experiments.Table3(cfg)
			if err != nil {
				return nil, 0, 0, err
			}
			t4, err := experiments.Table4(cfg)
			if err != nil {
				return nil, 0, 0, err
			}
			ft, err := experiments.FamilyTraffic(cfg)
			if err != nil {
				return nil, 0, 0, err
			}
			return map[string]any{"table3": t3, "table4": t4, "famtraffic": ft}, 0, 0, nil
		},
	},
}

func timingProfiles(short bool) []*synth.Profile {
	if short {
		return synth.Benchmarks()[:2]
	}
	return synth.Benchmarks()
}

// campaignPass is what one child process reports about one campaign pass.
type campaignPass struct {
	EntryNS int64     `json:"entry_ns"` // child main entry, Unix ns
	SetupS  float64   `json:"setup_s"`  // building every profile's program
	WallS   float64   `json:"wall_s"`   // the campaign itself
	Cells   int       `json:"cells"`    // simulations executed
	Failed  int       `json:"failed"`
	Err     string    `json:"err,omitempty"`
	Insts   uint64    `json:"insts"`   // instructions simulated
	CellMS  []float64 `json:"cell_ms"` // per-simulation host time
	// Hashes maps each campaign output, and "cells" (every executed
	// simulation's result), to the sha256 of its canonical JSON.
	Hashes map[string]string  `json:"hashes"`
	Passed int                `json:"passed"`
	Claims int                `json:"claims"`
	Layer  map[string]float64 `json:"layer,omitempty"`
}

// runCampaign measures a campaign workload. Each pass runs in a fresh
// child process, so the program cache, trace cache and machine pool start
// cold exactly as they do when svfexp starts. Every metric but
// peak_rss_mb, the largest over passes, is the median over the passes.
func runCampaign(ctx context.Context, o *options, name string, traced bool) (*outcome, error) {
	out := &outcome{checksOK: true, metrics: map[string]float64{}}
	check := func(p *campaignPass) {
		out.attempted += p.Cells + p.Failed
		out.failed += p.Failed
		if !checkPass(o, name, p) {
			out.checksOK = false
		}
	}
	if traced {
		// The untraced pass is the baseline for the tracing overhead.
		u, err := campaignChild(ctx, o, name, false)
		if err != nil {
			return nil, err
		}
		check(u)
		t, err := campaignChild(ctx, o, name, true)
		if err != nil {
			return nil, err
		}
		check(t)
		maps.Copy(out.metrics, t.Layer)
		out.metrics["trace_overhead_frac"] = ratio(t.WallS, u.WallS) - 1
		zeroMetrics(out.metrics, svfdOnly)
		return out, nil
	}

	passes := 1
	if !o.short {
		passes = max(1, int(o.seconds.Seconds()/campaigns[name].passSeconds+0.5))
	}
	var setup, rates, minsts, p50, p90 []float64
	for range passes {
		launch := time.Now()
		p, err := campaignChild(ctx, o, name, false)
		if err != nil {
			return nil, err
		}
		check(p)
		setup = append(setup, float64(p.EntryNS-launch.UnixNano())/1e9+p.SetupS)
		rates = append(rates, ratio(float64(p.Cells), p.WallS))
		minsts = append(minsts, ratio(float64(p.Insts)/1e6, p.WallS))
		p50 = append(p50, percentile(p.CellMS, 0.5))
		p90 = append(p90, percentile(p.CellMS, 0.9))
	}
	out.metrics["setup_s"] = median(setup)
	out.metrics["cells_per_s"] = median(rates)
	out.metrics["sim_minsts_per_s"] = median(minsts)
	out.metrics["cell_p50_ms"] = median(p50)
	out.metrics["cell_p90_ms"] = median(p90)
	out.metrics["peak_rss_mb"] = childrenPeakRSSMB()
	return out, nil
}

// campaignChild runs one pass in a child process (this binary with -child)
// in its own process group, killed as a group if ctx ends first.
func campaignChild(ctx context.Context, o *options, name string, traced bool) (*campaignPass, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-work", o.work}
	if o.short {
		args = append(args, "-short")
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("campaign pass: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	p := &campaignPass{}
	if err := json.Unmarshal(lines[len(lines)-1], p); err != nil {
		return nil, fmt.Errorf("campaign pass report: %w", err)
	}
	return p, nil
}

// campaignChildMain is the child side: one cold campaign pass, reported as
// JSON on standard output.
func campaignChildMain(name string, o *options, traced bool, entry time.Time) int {
	spec, ok := campaigns[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "svfbench: -child: unknown campaign %q\n", name)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p, err := campaignPassRun(ctx, spec, o, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %s: %v\n", name, err)
		return 1
	}
	p.EntryNS = entry.UnixNano()
	if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %v\n", err)
		return 1
	}
	return 0
}

func campaignPassRun(ctx context.Context, spec campaignSpec, o *options, traced bool) (*campaignPass, error) {
	p := &campaignPass{}
	profs := spec.profiles(o.short)
	t0 := time.Now()
	if err := buildPrograms(profs); err != nil {
		return nil, err
	}
	p.SetupS = time.Since(t0).Seconds()

	ex := &timingExec{}
	cache := sim.NewRunCache()
	cache.SetExecutor(ex)
	cfg := spec.config(o.short)
	var campaignSpan *telemetry.ActiveSpan
	if traced {
		// The traced pass runs with the telemetry `svfexp -events FILE`
		// switches on — event log, metrics registry, progress and one
		// campaign trace — so trace_overhead_frac is what that costs.
		f, err := os.CreateTemp(o.work, "campaign-*.events")
		if err != nil {
			return nil, err
		}
		events := telemetry.NewEventLog(f)
		defer events.Close()
		tracer := telemetry.NewTracer()
		tracer.SetEvents(events)
		campaignSpan = tracer.StartSpan(telemetry.SpanContext{Trace: telemetry.MintTraceID("svfbench-campaign|" + f.Name())}, "campaign")
		ctx = telemetry.ContextWithSpan(ctx, campaignSpan.Context())
		cfg.Progress = telemetry.NewProgress()
		cache.SetObserver(&sim.Observer{Events: events, Registry: telemetry.NewRegistry(), Progress: cfg.Progress, Tracer: tracer})
	}
	cfg.Parallel = campaignParallel
	cfg.Cache = cache
	cfg.Ctx = ctx

	g0 := readGoMetrics()
	t0 = time.Now()
	outputs, passed, claims, err := spec.run(cfg)
	campaignSpan.End()
	p.WallS = time.Since(t0).Seconds()
	g1 := readGoMetrics()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	p.Passed, p.Claims = passed, claims
	p.Failed = ex.failed
	if err != nil {
		p.Err = err.Error()
		p.Failed = max(p.Failed, 1)
	}

	var runBusy, trafficBusy time.Duration
	var runInsts, trafficInsts, cycles uint64
	var runCalls, trafficCalls int
	refs := make([]cellRef, len(ex.cells))
	sizes := make([]int, len(ex.cells))
	payloads := make(map[string][]byte, len(ex.cells))
	for i, c := range ex.cells {
		refs[i] = c.ref
		p.CellMS = append(p.CellMS, float64(c.dur)/float64(time.Millisecond))
		var payload []byte
		if c.res != nil {
			runCalls++
			runBusy += c.dur
			runInsts += c.res.Pipe.Committed
			cycles += c.res.Pipe.Cycles
			if payload, err = json.Marshal(c.res); err != nil {
				return nil, err
			}
		} else {
			trafficCalls++
			trafficBusy += c.dur
			trafficInsts += uint64(c.ref.maxInsts)
			payload = fmt.Appendf(nil, `{"in":%d,"out":%d,"ctx_bytes":%d}`, c.in, c.out, c.ctxBytes)
		}
		sizes[i] = len(payload)
		payloads[c.ref.key()] = payload
	}
	p.Cells = len(ex.cells)
	p.Insts = runInsts + trafficInsts

	p.Hashes = map[string]string{"cells": hashCells(payloads)}
	for k, v := range outputs {
		data, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", k, err)
		}
		p.Hashes[k] = sha256Hex(data)
	}

	if !traced {
		return p, nil
	}
	ts := sim.TraceCacheStats()
	cs := cache.Stats()
	busy := (runBusy + trafficBusy).Seconds()
	p.Layer = map[string]float64{
		"synth.build_s":            p.SetupS,
		"tracecache.hit_ratio":     ratio(float64(ts.Hits), float64(ts.Hits+ts.Misses)),
		"tracecache.evictions":     float64(ts.Evictions),
		"tracecache.used_mb":       float64(ts.UsedBytes) / mib,
		"sim.run_calls":            float64(runCalls),
		"sim.run_busy_s":           runBusy.Seconds(),
		"sim.run_minsts_per_s":     ratio(float64(runInsts)/1e6, runBusy.Seconds()),
		"sim.traffic_calls":        float64(trafficCalls),
		"sim.traffic_busy_s":       trafficBusy.Seconds(),
		"sim.traffic_minsts_per_s": ratio(float64(trafficInsts)/1e6, trafficBusy.Seconds()),
		"sim.busy_frac":            ratio(busy, campaignParallel*p.WallS),
		"pipeline.cycles":          float64(cycles),
		"pipeline.committed":       float64(runInsts),
		"pipeline.ns_per_cycle":    ratio(float64(runBusy.Nanoseconds()), float64(cycles)),
		"runcache.requests":        float64(cs.Requests()),
		"runcache.hit_ratio":       ratio(float64(cs.Hits+cs.Shared), float64(cs.Requests())),
		"runcache.retries":         float64(cs.Retries),
		"go.gc_cpu_frac":           ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU),
		"go.alloc_mb_per_cell":     ratio((g1.allocBytes-g0.allocBytes)/mib, float64(p.Cells)),
	}
	bodies, err := jobBodies(refs)
	if err != nil {
		return nil, err
	}
	micro, err := microbench(microInputs{profiles: profs, cells: refs, bodies: bodies, recordSizes: sizes, dir: o.work})
	if err != nil {
		return nil, err
	}
	maps.Copy(p.Layer, micro)
	return p, nil
}

// buildPrograms fills the program cache with every profile's synthetic
// program, campaignParallel at a time.
func buildPrograms(profs []*synth.Profile) error {
	errs := make([]error, len(profs))
	sem := make(chan struct{}, campaignParallel)
	var wg sync.WaitGroup
	for i, p := range profs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = sim.ProgramFor(p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timingExec is the sim.Executor the campaigns run under: it executes
// locally, exactly as a RunCache without an executor would, and records
// each simulation's host time and result.
type timingExec struct {
	mu     sync.Mutex
	cells  []execCell
	failed int
}

type execCell struct {
	ref               cellRef
	dur               time.Duration
	res               *sim.Result // timing runs
	in, out, ctxBytes uint64      // traffic runs
}

func (e *timingExec) record(c execCell, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.failed++
		return
	}
	e.cells = append(e.cells, c)
}

func (e *timingExec) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	t0 := time.Now()
	res, err := sim.RunContext(ctx, prof, opt)
	// The cell is kept as a client would submit it: the traced pass's
	// telemetry probe is not part of it.
	cell := opt
	cell.Probe = nil
	e.record(execCell{ref: cellRef{prof: prof, opt: &cell}, dur: time.Since(t0), res: res}, err)
	return res, err
}

func (e *timingExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	t0 := time.Now()
	in, out, cb, err := sim.TrafficOnly(ctx, prof, policy, sizeBytes, maxInsts, ctxPeriod)
	ref := cellRef{prof: prof, policy: policy, sizeBytes: sizeBytes, maxInsts: maxInsts, ctxPeriod: ctxPeriod}
	e.record(execCell{ref: ref, dur: time.Since(t0), in: in, out: out, ctxBytes: cb}, err)
	return in, out, cb, err
}

// goMetrics is a runtime/metrics snapshot.
type goMetrics struct{ gcCPU, totalCPU, allocBytes float64 }

func readGoMetrics() goMetrics {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return goMetrics{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// hashCells digests every executed simulation's result in key order.
func hashCells(payloads map[string][]byte) string {
	h := sha256.New()
	for _, k := range sortedKeys(payloads) {
		h.Write([]byte(k))
		h.Write([]byte{'\t'})
		h.Write(payloads[k])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expectedJSON holds the result hashes each campaign must reproduce, keyed
// by workload ("/short" for the smoke-test sizes). After a change that is
// meant to alter simulated results, copy the "hash X, want Y" values a run
// prints into it.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// checkPass applies the campaign correctness gate to one pass: every
// result hash must match, and the full-size scorecard must grade every
// claim as reproduced.
func checkPass(o *options, name string, p *campaignPass) bool {
	key := name
	if o.short {
		key += "/short"
	}
	if p.Err != "" {
		fmt.Fprintf(os.Stderr, "svfbench: %s: campaign failed: %s\n", name, p.Err)
		return false
	}
	var expected map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: testdata/expected.json: %v\n", err)
		return false
	}
	want := expected[key]
	ok := len(want) > 0 && len(want) == len(p.Hashes)
	for k, v := range p.Hashes {
		if want[k] != v {
			fmt.Fprintf(os.Stderr, "svfbench: %s: %s hash %s, want %s\n", name, k, v, want[k])
			ok = false
		}
	}
	if !o.short && p.Passed != p.Claims {
		fmt.Fprintf(os.Stderr, "svfbench: %s: scorecard graded %d/%d\n", name, p.Passed, p.Claims)
		ok = false
	}
	return ok
}
