package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// The svfd workloads drive a real daemon from a closed loop: svfdClients
// client goroutines in this one process, each sending its next job only
// after the previous job's results have streamed back.
const (
	svfdClients = 2
	// freshJobsPerS and hitsJobsPerS are each workload's job rate on a
	// 2-core 2.1 GHz Xeon. A run sends -seconds times that many jobs: the
	// work is fixed by -seconds, the same on both sides of a comparison,
	// and daemon memory that grows with jobs compares fairly.
	freshJobsPerS = 50
	hitsJobsPerS  = 600
	// freshInsts plus a seeded jitter below freshJitter sizes each cell:
	// about half of a cell's time is then spent outside the simulator.
	freshInsts  = 20_000
	freshJitter = 1_000
	// warmupInsts sizes the warm-up job's cells, which only make every
	// worker build every program before timing starts.
	warmupInsts = 1_000
	// sampleEvery: one cell in this many is re-simulated in-process and
	// must match its streamed result byte for byte.
	sampleEvery = 16
	// resendEvery: one svfd-hits submission in this many resends an earlier
	// spec verbatim, which the daemon deduplicates (200, not 202).
	resendEvery = 10
	// keepInputs bounds the bodies, cells and record sizes kept for the
	// per-layer microbenchmarks.
	keepInputs = 512
)

// jobsPerClient is how many jobs each client sends in the timed phase.
func jobsPerClient(o *options, jobsPerS int) int {
	return max(1, int(o.seconds.Seconds())*jobsPerS/svfdClients)
}

func poolCells(o *options) int {
	if o.short {
		return 32
	}
	return 256
}

// planCell is one cell of a job as the client planned it.
type planCell struct {
	ref     cellRef
	key     string
	sampled bool
}

// jobPlan is one job to submit.
type jobPlan struct {
	cells  []planCell
	body   []byte
	resend bool
}

func newPlan(cells []planCell) (*jobPlan, error) {
	refs := make([]cellRef, len(cells))
	for i, c := range cells {
		refs[i] = c.ref
	}
	body, err := jobBody(refs)
	return &jobPlan{cells: cells, body: body}, err
}

// cellDrawer draws distinct run cells, bench × policy × ports with a
// jittered instruction budget. Each client draws from its own residue of
// the jitter, so clients never collide and each client's draws depend only
// on the seed.
type cellDrawer struct {
	rng    *rand.Rand
	profs  []*synth.Profile
	stride int // jitter values used are ≡ offset (mod stride)
	offset int
	used   map[string]bool
}

func newDrawer(seed int64, stream int, profs []*synth.Profile, stride, offset int) *cellDrawer {
	return &cellDrawer{rng: rand.New(rand.NewSource(seed*1009 + int64(stream))), profs: profs, stride: stride, offset: offset, used: map[string]bool{}}
}

func (d *cellDrawer) draw() (planCell, error) {
	for tries := 0; tries < 1000; tries++ {
		prof := d.profs[d.rng.Intn(len(d.profs))]
		policy := pipeline.StackPolicy(d.rng.Intn(3)) // none, SVF, stack cache
		ports := 1 + d.rng.Intn(2)
		jitter := d.stride*d.rng.Intn(freshJitter/d.stride) + d.offset
		sampled := d.rng.Intn(sampleEvery) == 0
		opt := &sim.Options{Policy: policy, DL1Ports: ports, MaxInsts: freshInsts + jitter}
		if policy != pipeline.PolicyNone {
			opt.StackPorts = ports
		}
		c := planCell{ref: cellRef{prof: prof, opt: opt}, sampled: sampled}
		c.key = c.ref.key()
		if !d.used[c.key] {
			d.used[c.key] = true
			return c, nil
		}
	}
	return planCell{}, errors.New("no unused cell left to draw")
}

func (d *cellDrawer) job() (*jobPlan, error) {
	cells := make([]planCell, cellsPerJob)
	for i := range cells {
		var err error
		if cells[i], err = d.draw(); err != nil {
			return nil, err
		}
	}
	return newPlan(cells)
}

// warmupPlan is one job of 2×svfdWorkers tiny cells per profile, so each
// worker builds each program before the timed phase.
func warmupPlan(profs []*synth.Profile) (*jobPlan, error) {
	var cells []planCell
	for _, p := range profs {
		for _, v := range []struct {
			policy pipeline.StackPolicy
			ports  int
		}{{pipeline.PolicyNone, 1}, {pipeline.PolicySVF, 1}, {pipeline.PolicyStackCache, 1}, {pipeline.PolicySVF, 2}} {
			opt := &sim.Options{Policy: v.policy, DL1Ports: v.ports, StackPorts: v.ports, MaxInsts: warmupInsts}
			c := planCell{ref: cellRef{prof: p, opt: opt}}
			c.key = c.ref.key()
			cells = append(cells, c)
		}
	}
	return newPlan(cells)
}

// sample is a cell to re-simulate and the first result streamed for it.
type sample struct {
	ref cellRef
	raw []byte
}

// tally accumulates one timed phase.
type tally struct {
	mu               sync.Mutex
	cells, failed    int
	insts            uint64
	cellMS, submitMS []float64
	digests          map[string][32]byte
	samples          map[string]*sample
	bodies           [][]byte
	refs             []cellRef
	recordSizes      []int
	start, end       time.Time
	trace            traceStats
	metricsDiff      map[string]float64
}

func newTally() *tally {
	return &tally{digests: map[string][32]byte{}, samples: map[string]*sample{}, trace: traceStats{leaseMS: map[string]float64{}}}
}

// add records one finished job. A cell fails if its submission was not
// accepted, its line is missing or not "done", or its result differs from
// an earlier result for the same cell.
func (t *tally) add(plan *jobPlan, res *jobResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells += len(plan.cells)
	t.submitMS = append(t.submitMS, res.submitMS)
	if res.code != http.StatusAccepted && res.code != http.StatusOK {
		t.failed += len(plan.cells)
		return
	}
	if !plan.resend && len(t.bodies) < keepInputs {
		t.bodies = append(t.bodies, plan.body)
	}
	t.failed += len(plan.cells) - len(res.lines)
	for i, l := range res.lines {
		t.cellMS = append(t.cellMS, res.cellMS[i])
		if l.Index < 0 || l.Index >= len(plan.cells) || l.Status != "done" || l.Key != plan.cells[l.Index].key {
			t.failed++
			continue
		}
		pc := plan.cells[l.Index]
		digest := sha256.Sum256(l.Result)
		if prev, seen := t.digests[pc.key]; seen && prev != digest {
			t.failed++
			continue
		}
		t.digests[pc.key] = digest
		var counts struct{ Pipe struct{ Committed uint64 } }
		if err := json.Unmarshal(l.Result, &counts); err != nil {
			t.failed++
			continue
		}
		t.insts += counts.Pipe.Committed
		if pc.sampled && t.samples[pc.key] == nil {
			t.samples[pc.key] = &sample{ref: pc.ref, raw: l.Result}
		}
		if len(t.recordSizes) < keepInputs && !plan.resend {
			t.recordSizes = append(t.recordSizes, len(l.Result))
			t.refs = append(t.refs, pc.ref)
		}
	}
	if res.spans != nil {
		t.trace.add(plan, res)
	}
}

func (t *tally) wall() float64 { return t.end.Sub(t.start).Seconds() }

func (t *tally) rate() float64 { return ratio(float64(t.cells-t.failed), t.wall()) }

// drive runs the closed loop: each client sends jobs jobs from its next
// function, one at a time, waiting for each job's results.
func drive(ctx context.Context, c *client, jobs int, traced bool, next []func() (*jobPlan, error), t *tally) error {
	t.start = time.Now()
	errs := make([]error, len(next))
	var wg sync.WaitGroup
	for i := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				plan, err := next[i]()
				if err != nil {
					errs[i] = err
					return
				}
				res, err := c.runJob(ctx, plan.body, traced)
				if err != nil {
					errs[i] = err
					return
				}
				t.add(plan, res)
			}
		}()
	}
	wg.Wait()
	t.end = time.Now()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ctx.Err()
}

// submitAll runs plans to completion from svfdClients clients (the
// untimed warm-up and pool population).
func submitAll(ctx context.Context, c *client, plans []*jobPlan) error {
	var mu sync.Mutex
	var next int
	pull := func() *jobPlan {
		mu.Lock()
		defer mu.Unlock()
		if next == len(plans) {
			return nil
		}
		next++
		return plans[next-1]
	}
	errs := make([]error, svfdClients)
	var wg sync.WaitGroup
	for i := range svfdClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				plan := pull()
				if plan == nil {
					return
				}
				res, err := c.runJob(ctx, plan.body, false)
				if err == nil {
					err = checkUntimed(plan, res)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkUntimed requires every cell of an untimed job to be done.
func checkUntimed(plan *jobPlan, res *jobResult) error {
	if res.code != http.StatusAccepted || len(res.lines) != len(plan.cells) {
		return fmt.Errorf("untimed job: status %d, %d of %d results", res.code, len(res.lines), len(plan.cells))
	}
	for _, l := range res.lines {
		if l.Status != "done" {
			return fmt.Errorf("untimed job: cell %d %s", l.Index, l.Status)
		}
	}
	return nil
}

// session is one daemon lifetime's timed phase.
type session struct {
	setupS []float64
	t      *tally
	// replayS is journal.Open on a copy of the daemon's journals after the
	// phase; fsyncs and runBusyS come from its event log (traced only).
	replayS  float64
	fsyncs   int
	runBusyS float64
}

// timedPhase drives d with jobs jobs per client, then stops it and
// collects what the daemon recorded.
func timedPhase(ctx context.Context, o *options, d *daemon, jobs int, traced bool, next []func() (*jobPlan, error)) (*session, error) {
	c := newClient(d.addr)
	defer c.close()
	s := &session{t: newTally()}
	m0, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := drive(ctx, c, jobs, traced, next, s.t); err != nil {
		return nil, err
	}
	m1, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	s.t.metricsDiff = map[string]float64{}
	for k, v := range m1 {
		s.t.metricsDiff[k] = v - m0[k]
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if !traced {
		return s, nil
	}
	copyDir, err := copyJournals(d.dir, o.work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(copyDir)
	var replay float64
	for _, sub := range []string{"cells", "jobs"} {
		r, err := timeJournalOpen(filepath.Join(copyDir, sub))
		if err != nil {
			return nil, err
		}
		replay += r
	}
	s.replayS = replay
	s.fsyncs, s.runBusyS, err = eventTotals(d.events, s.t.start, s.t.end)
	return s, err
}

// runSvfdFresh measures svfd-fresh: every cell is a cache miss, so each
// job crosses admission, the jobs-journal fsync, the run cache's miss
// path, a shard lease with its JSON frames, the cells journal and NDJSON
// encoding.
func runSvfdFresh(ctx context.Context, o *options, traced bool) (*outcome, error) {
	profs := timingProfiles(o.short)
	warm, err := warmupPlan(profs)
	if err != nil {
		return nil, err
	}
	freshSession := func(rounds int, traced bool) (*session, error) {
		var setups []float64
		var d *daemon
		for r := range rounds {
			dir, err := os.MkdirTemp(o.work, "fresh-")
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			d, err = startDaemon(ctx, o, dir, traced)
			if err != nil {
				return nil, err
			}
			c := newClient(d.addr)
			err = submitAll(ctx, c, []*jobPlan{warm})
			c.close()
			setups = append(setups, time.Since(t0).Seconds())
			if err == nil && r < rounds-1 {
				err = d.stop()
				os.RemoveAll(dir)
			}
			if err != nil {
				d.kill()
				return nil, err
			}
		}
		defer os.RemoveAll(d.dir)
		next := make([]func() (*jobPlan, error), svfdClients)
		for i := range next {
			next[i] = newDrawer(o.seed, i, profs, svfdClients, i).job
		}
		s, err := timedPhase(ctx, o, d, jobsPerClient(o, freshJobsPerS), traced, next)
		if err != nil {
			d.kill()
			return nil, err
		}
		s.setupS = setups
		return s, nil
	}

	if !traced {
		s, err := freshSession(o.setupRounds(3), false)
		if err != nil {
			return nil, err
		}
		return svfdEndToEnd(ctx, s)
	}
	u, err := freshSession(1, false)
	if err != nil {
		return nil, err
	}
	s, err := freshSession(1, true)
	if err != nil {
		return nil, err
	}
	return svfdLayers(ctx, o, profs, u, s)
}

// runSvfdHits measures svfd-hits: the same layers as svfd-fresh used for
// reads. A daemon first populates a pool of cells and is stopped; the
// timed daemon restarts on that journal and serves jobs drawn from the
// pool, every cell a journal-restored hit.
func runSvfdHits(ctx context.Context, o *options, traced bool) (*outcome, error) {
	profs := timingProfiles(o.short)
	drawer := newDrawer(o.seed, svfdClients, profs, 1, 0)
	pool := make([]planCell, poolCells(o))
	var plans []*jobPlan
	for i := range pool {
		var err error
		if pool[i], err = drawer.draw(); err != nil {
			return nil, err
		}
		if (i+1)%cellsPerJob == 0 {
			plan, err := newPlan(pool[i+1-cellsPerJob : i+1])
			if err != nil {
				return nil, err
			}
			plans = append(plans, plan)
		}
	}
	poolDir, err := os.MkdirTemp(o.work, "pool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(poolDir)
	d, err := startDaemon(ctx, o, poolDir, false)
	if err != nil {
		return nil, err
	}
	c := newClient(d.addr)
	err = submitAll(ctx, c, plans)
	c.close()
	if err == nil {
		err = d.stop()
	}
	if err != nil {
		d.kill()
		return nil, err
	}

	hitsSession := func(rounds int, traced bool) (*session, error) {
		// Each session restarts from the pristine pool journal, so the
		// untraced and traced sessions see identical daemon state.
		dir, err := copyJournals(poolDir, o.work)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		var setups []float64
		var d *daemon
		for r := range rounds {
			t0 := time.Now()
			if d, err = startDaemon(ctx, o, dir, traced); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if r < rounds-1 {
				if err := d.stop(); err != nil {
					return nil, err
				}
			}
		}
		next := make([]func() (*jobPlan, error), svfdClients)
		for i := range next {
			next[i] = hitsGenerator(o.seed, i, pool)
		}
		s, err := timedPhase(ctx, o, d, jobsPerClient(o, hitsJobsPerS), traced, next)
		if err != nil {
			d.kill()
			return nil, err
		}
		s.setupS = setups
		return s, nil
	}

	if !traced {
		// A restart takes tens of milliseconds, so it is sampled more
		// often than svfd-fresh's seconds-long set-up.
		s, err := hitsSession(o.setupRounds(7), false)
		if err != nil {
			return nil, err
		}
		return svfdEndToEnd(ctx, s)
	}
	u, err := hitsSession(1, false)
	if err != nil {
		return nil, err
	}
	s, err := hitsSession(1, true)
	if err != nil {
		return nil, err
	}
	return svfdLayers(ctx, o, profs, u, s)
}

// hitsGenerator returns one client's job source for svfd-hits: cellsPerJob
// distinct pool cells per job, and now and then an earlier job resent.
func hitsGenerator(seed int64, client int, pool []planCell) func() (*jobPlan, error) {
	rng := rand.New(rand.NewSource(seed*1013 + int64(client)))
	var sent []*jobPlan
	return func() (*jobPlan, error) {
		if len(sent) > 0 && rng.Intn(resendEvery) == 0 {
			again := *sent[rng.Intn(len(sent))]
			again.resend = true
			return &again, nil
		}
		cells := make([]planCell, 0, cellsPerJob)
		for _, i := range rng.Perm(len(pool))[:cellsPerJob] {
			cells = append(cells, pool[i])
		}
		plan, err := newPlan(cells)
		if err != nil {
			return nil, err
		}
		if len(sent) < keepInputs {
			sent = append(sent, plan)
		}
		return plan, nil
	}
}

// verify re-simulates every sampled cell in-process, after the timed
// phases, and counts the streamed results that differ from it byte for
// byte. It returns the local host time per sampled key.
func verify(ctx context.Context, tallies ...*tally) (failed int, localMS map[string]float64, err error) {
	refs := map[string]cellRef{}
	for _, t := range tallies {
		for k, s := range t.samples {
			refs[k] = s.ref
		}
	}
	keys := sortedKeys(refs)
	localMS = make(map[string]float64, len(keys))
	want := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	sem := make(chan struct{}, campaignParallel)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ref := refs[k]
			t0 := time.Now()
			res, err := sim.RunContext(ctx, ref.prof, *ref.opt)
			ms := sinceMS(t0)
			if err == nil {
				want[i], err = json.Marshal(res)
			}
			errs[i] = err
			mu.Lock()
			localMS[k] = ms
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, nil, err
	}
	for i, k := range keys {
		for _, t := range tallies {
			if s := t.samples[k]; s != nil && !bytes.Equal(s.raw, want[i]) {
				fmt.Fprintf(os.Stderr, "svfbench: result mismatch for %s\n", k)
				failed++
			}
		}
	}
	return failed, localMS, nil
}

// svfdEndToEnd verifies an untraced session and reports its end-to-end
// metrics.
func svfdEndToEnd(ctx context.Context, s *session) (*outcome, error) {
	bad, _, err := verify(ctx, s.t)
	if err != nil {
		return nil, err
	}
	t := s.t
	out := &outcome{
		attempted: t.cells,
		failed:    t.failed + bad + int(t.metricsDiff["svf_sim_run_faults_total"]),
		checksOK:  true,
		metrics: map[string]float64{
			"setup_s":          median(s.setupS),
			"cells_per_s":      t.rate(),
			"sim_minsts_per_s": ratio(float64(t.insts)/1e6, t.wall()),
			"cell_p50_ms":      percentile(t.cellMS, 0.5),
			"cell_p90_ms":      percentile(t.cellMS, 0.9),
			"peak_rss_mb":      childrenPeakRSSMB(),
		},
	}
	return out, nil
}

// svfdLayers verifies both sessions of a traced run and reports the
// per-layer metrics of the traced session s; u is its untraced twin.
func svfdLayers(ctx context.Context, o *options, profs []*synth.Profile, u, s *session) (*outcome, error) {
	t0 := time.Now()
	if err := buildPrograms(profs); err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	bad, localMS, err := verify(ctx, u.t, s.t)
	if err != nil {
		return nil, err
	}
	t := s.t
	md := t.metricsDiff
	out := &outcome{
		attempted: u.t.cells + t.cells,
		failed:    u.t.failed + t.failed + bad + int(u.t.metricsDiff["svf_sim_run_faults_total"]+md["svf_sim_run_faults_total"]),
		checksOK:  true,
		metrics:   map[string]float64{},
	}
	m := out.metrics
	zeroMetrics(m, campaignOnly)

	runs, hits := md["svf_sim_runs_total"], md["svf_cache_hits_total"]
	cycles, insts := md["svf_sim_cycles_total"], md["svf_sim_insts_total"]
	m["synth.build_s"] = buildS
	m["sim.run_calls"] = runs
	m["sim.run_busy_s"] = s.runBusyS
	m["sim.run_minsts_per_s"] = ratio(insts/1e6, s.runBusyS)
	m["sim.busy_frac"] = ratio(s.runBusyS, svfdWorkers*t.wall())
	m["pipeline.cycles"] = cycles
	m["pipeline.committed"] = insts
	m["pipeline.ns_per_cycle"] = ratio(s.runBusyS*1e9, cycles)
	m["runcache.requests"] = hits + runs
	m["runcache.hit_ratio"] = ratio(hits, hits+runs)
	m["runcache.retries"] = md["svf_sim_retries_total"]
	m["runcache.restored_hits"] = md["svf_cache_restored_hits_total"]
	// Each executed cell appends one cells-journal record; each accepted
	// job appends an accepted and a done record.
	m["journal.appends_per_fsync"] = ratio(runs+2*md["svf_service_jobs_submitted_total"], float64(s.fsyncs))
	m["shard.reenqueued"] = md["svf_shard_reenqueued_total"]
	m["shard.worker_deaths"] = md["svf_shard_worker_deaths_total"]
	m["service.submit_ms_p50"] = median(t.submitMS)
	m["trace_overhead_frac"] = ratio(u.t.rate(), t.rate()) - 1

	tr := &t.trace
	m["runcache.self_us_p50"] = median(tr.selfUS)
	m["shard.lease_wait_ms_p50"] = median(tr.leaseWaitMS)
	m["shard.lease_ms_p50"] = median(tr.leaseAllMS)
	var overhead []float64
	for k, lease := range tr.leaseMS {
		if local, ok := localMS[k]; ok {
			overhead = append(overhead, lease-local)
		}
	}
	m["shard.overhead_ms_p50"] = median(overhead)
	m["service.admit_ms_p50"] = median(tr.admitMS)
	m["service.queue_ms_p50"] = median(tr.queueMS)
	m["service.unattributed_frac"] = 1 - median(tr.rootFrac)
	m["trace.cells_checked"] = float64(tr.cellsChecked)
	m["trace.cell_sum_bad"] = float64(tr.cellSumBad)
	// A traced run also gates the span trees and the shard fleet: at least
	// 95% of the cells' children must fit their cell span, and no worker
	// may die or have a cell re-enqueued in either session.
	deaths := md["svf_shard_worker_deaths_total"] + u.t.metricsDiff["svf_shard_worker_deaths_total"]
	reenqueued := md["svf_shard_reenqueued_total"] + u.t.metricsDiff["svf_shard_reenqueued_total"]
	if tr.cellsChecked == 0 || tr.cellSumBad*20 > tr.cellsChecked || deaths != 0 || reenqueued != 0 {
		fmt.Fprintf(os.Stderr, "svfbench: traced run: %d of %d cell spans overrun, %g worker deaths, %g cells re-enqueued\n",
			tr.cellSumBad, tr.cellsChecked, deaths, reenqueued)
		out.checksOK = false
	}

	micro, err := microbench(microInputs{profiles: profs, cells: t.refs, bodies: t.bodies, recordSizes: t.recordSizes, dir: o.work})
	if err != nil {
		return nil, err
	}
	for k, v := range micro {
		m[k] = v
	}
	// The daemon's own journals, not the microbenchmark's, are what a
	// restart replays.
	m["journal.replay_s"] = s.replayS
	return out, nil
}

// traceStats accumulates span-derived latencies of a traced session.
type traceStats struct {
	rootFrac                 []float64 // job root span / client job latency
	admitMS, queueMS         []float64
	selfUS                   []float64 // cell span minus its children
	leaseWaitMS              []float64
	leaseAllMS               []float64
	leaseMS                  map[string]float64 // sampled cells' lease spans, by key
	cellsChecked, cellSumBad int
}

// add folds one job's span tree in: job → admit, cell[i] → queue,
// worker.run|retry (→ lease.wait, lease[genN]), cache.hit|cache.join|
// journal.replay, result.
func (ts *traceStats) add(plan *jobPlan, res *jobResult) {
	children := map[string][]span{}
	var root *span
	for i, sp := range res.spans {
		if sp.parent == "" {
			if sp.name == "job" {
				root = &res.spans[i]
			}
			continue
		}
		children[sp.parent] = append(children[sp.parent], sp)
	}
	if root == nil {
		return
	}
	ts.rootFrac = append(ts.rootFrac, ratio(root.durUS/1e3, res.jobMS))
	for _, c := range children[root.id] {
		if c.name == "admit" {
			ts.admitMS = append(ts.admitMS, c.durUS/1e3)
			continue
		}
		idxStr, ok := strings.CutPrefix(c.name, "cell[")
		if !ok {
			continue
		}
		idx, err := strconv.Atoi(idxStr[:max(0, strings.IndexByte(idxStr, ']'))])
		if err != nil || idx >= len(plan.cells) {
			continue
		}
		var sum float64
		kids := children[c.id]
		for _, k := range kids {
			sum += k.durUS
			switch {
			case k.name == "queue":
				ts.queueMS = append(ts.queueMS, k.durUS/1e3)
			case k.name == "worker.run" || k.name == "retry":
				for _, g := range children[k.id] {
					switch {
					case g.name == "lease.wait":
						ts.leaseWaitMS = append(ts.leaseWaitMS, g.durUS/1e3)
					case strings.HasPrefix(g.name, "lease["):
						ts.leaseAllMS = append(ts.leaseAllMS, g.durUS/1e3)
						if pc := plan.cells[idx]; pc.sampled {
							ts.leaseMS[pc.key] = g.durUS / 1e3
						}
					}
				}
			}
		}
		// Zero-width spans (cache.hit, journal.replay, result) render as
		// 1 µs, so the children may overshoot by one µs each.
		self := c.durUS - sum
		ts.cellsChecked++
		if self < -float64(len(kids)) {
			ts.cellSumBad++
		}
		ts.selfUS = append(ts.selfUS, max(self, 0))
	}
}
