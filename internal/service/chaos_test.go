package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"path/filepath"

	"svf/internal/faultinject"
	"svf/internal/journal"
	"svf/internal/shard"
	"svf/internal/sim"
	"svf/internal/telemetry"
)

// inprocFleet runs real shard Workers in this process over pipes — the
// full wire protocol with no exec overhead — so the chaos suite exercises
// the daemon over a genuine lease-supervised pool.
func inprocFleet() shard.Spawner {
	return func() (*shard.Proc, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		die := func() {
			inR.CloseWithError(errors.New("worker killed"))
			outW.CloseWithError(errors.New("worker killed"))
		}
		w := &shard.Worker{
			In:   inR,
			Out:  outW,
			Exit: func(int) { die() },
			Hang: func() { select {} },
		}
		go func() {
			_ = w.Run(context.Background())
			outW.Close()
		}()
		return &shard.Proc{In: inW, Out: outR, Kill: func() error { die(); return nil }}, nil
	}
}

// chaosSpecs is the workload four concurrent clients submit. Client 0 and
// client 3 submit an identical job (dedupe across tenants); every spec
// shares the crafty cell with at least one other (single-flight in the
// cache, not the service, keeps it one simulation).
func chaosSpecs() []string {
	crafty := `{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}`
	gzip := `{"kind":"run","bench":"164.gzip.log","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}`
	mcf := `{"kind":"run","bench":"181.mcf.inp","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}`
	traffic := `{"kind":"traffic","bench":"186.crafty.ref","policy":"svf","max_insts":2000}`
	return []string{
		`{"cells":[` + crafty + `,` + gzip + `]}`,
		`{"cells":[` + crafty + `,` + mcf + `]}`,
		`{"cells":[` + traffic + `,` + crafty + `]}`,
		`{"cells":[` + crafty + `,` + gzip + `]}`, // identical to client 0's
	}
}

// newChaosServer builds a Server whose cells execute on an in-process
// worker fleet under plan-driven chaos.
func newChaosServer(t *testing.T, workers int, plan *faultinject.Plan, retries int) (*Server, *httptest.Server, *shard.Pool) {
	t.Helper()
	cache, _ := sim.NewRunCacheWithJournal(nil, nil)
	pool, err := shard.NewPool(shard.Config{
		Workers:  workers,
		LeaseTTL: 5 * time.Second,
		PoisonK:  3,
		Plan:     plan,
		Spawn:    inprocFleet(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache.SetExecutor(pool)
	cache.SetRetries(retries)
	progress := telemetry.NewProgress()
	progress.SetShard(pool.Status)
	srv, err := New(Config{
		Cache:    cache,
		Parallel: workers,
		Plan:     plan,
		Registry: telemetry.NewRegistry(),
		Progress: progress,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); pool.Close() })
	return srv, ts, pool
}

// referenceResults runs every chaos spec on an undisturbed in-process
// server and returns id → results bytes.
func referenceResults(t *testing.T) map[string][]byte {
	t.Helper()
	_, ts := newTestServer(t, nil)
	out := map[string][]byte{}
	for _, spec := range chaosSpecs() {
		code, resp := postJob(t, ts, spec)
		id := resp["id"].(string)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("reference submit = %d", code)
		}
		waitJobDone(t, ts, id)
		out[id] = fetchResults(t, ts, id)
	}
	return out
}

// TestChaosConcurrentClientsWorkerKills is the heart of the chaos suite:
// four concurrent clients submit overlapping jobs while the fault plan
// kills workers mid-assignment. Every job must finish with every cell
// done, no cell may be double-counted in the progress accounting, and
// every results stream must be byte-identical to the undisturbed
// single-process run.
func TestChaosConcurrentClientsWorkerKills(t *testing.T) {
	plan, err := faultinject.Parse("worker-kill=2,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, pool := newChaosServer(t, 3, plan, 3)

	specs := chaosSpecs()
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			code, resp := postJob(t, ts, spec)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("client %d: submit = %d (%v)", i, code, resp)
				return
			}
			id := resp["id"].(string)
			ids[i] = id
			waitJobDone(t, ts, id)
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Clients 0 and 3 submitted the same spec: same job.
	if ids[0] != ids[3] {
		t.Errorf("identical specs got distinct jobs: %s vs %s", ids[0], ids[3])
	}

	// The chaos actually happened and was recovered from.
	if st := pool.Status(); st.WorkerDeaths == 0 {
		t.Error("fault plan killed no workers — the drill tested nothing")
	}

	// Every cell done; results byte-identical to the undisturbed run.
	want := referenceResults(t)
	seen := map[string]bool{}
	for i, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		st := waitJobDone(t, ts, id)
		if st["partial_failure"] != false {
			t.Errorf("client %d job %s degraded under chaos: %v", i, id, st)
		}
		got := fetchResults(t, ts, id)
		if ref, ok := want[id]; !ok {
			t.Errorf("job %s missing from the reference set", id)
		} else if !bytes.Equal(got, ref) {
			t.Errorf("job %s results differ from the undisturbed run:\n%s\nvs\n%s", id, got, ref)
		}
	}

	// No cell double-counted: the progress tracker's done count equals the
	// total it was charged with, exactly once per admitted job cell.
	snap := srv.cfg.Progress.Snapshot()
	totalCells := 0
	for id := range seen {
		j, _ := srv.Job(id)
		totalCells += len(j.cells)
	}
	if snap.Done != snap.Total || snap.Total != int64(totalCells) {
		t.Errorf("progress done/total = %d/%d, want %d/%d", snap.Done, snap.Total, totalCells, totalCells)
	}
}

// TestChaosClientDisconnect: an injected mid-stream disconnect severs one
// results fetch; the job is untouched and a refetch delivers the full,
// identical stream.
func TestChaosClientDisconnect(t *testing.T) {
	plan, err := faultinject.Parse("client-disconnect=1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(c *Config) { c.Plan = plan })

	code, resp := postJob(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := resp["id"].(string)
	waitJobDone(t, ts, id)

	// First fetch: the injection aborts the stream after the first record.
	r, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	partial, readErr := io.ReadAll(r.Body)
	r.Body.Close()
	if readErr == nil && bytes.Count(bytes.TrimSpace(partial), []byte("\n")) >= 1 {
		t.Fatalf("injected disconnect delivered a full stream:\n%s", partial)
	}

	// The refetch is complete and matches a clean server's bytes.
	got := fetchResults(t, ts, id)
	if n := len(bytes.Split(bytes.TrimSpace(got), []byte("\n"))); n != 2 {
		t.Fatalf("refetch lines = %d, want 2", n)
	}
	_, tsRef := newTestServer(t, nil)
	_, refResp := postJob(t, tsRef, testSpec())
	waitJobDone(t, tsRef, refResp["id"].(string))
	if ref := fetchResults(t, tsRef, refResp["id"].(string)); !bytes.Equal(got, ref) {
		t.Errorf("post-disconnect refetch differs from the clean run")
	}
}

// TestChaosDaemonKillWithFleet: the full in-process drill — a daemon
// over a worker fleet dies after accepting jobs (daemon-kill injection),
// restarts on the same journals, replays, finishes on a fresh fleet, and
// the results match an undisturbed run byte for byte.
func TestChaosDaemonKillWithFleet(t *testing.T) {
	dir := t.TempDir()
	specs := chaosSpecs()

	// Phase 1: daemon accepts all four submissions, then the kill fires on
	// the last accept (daemon-kill=3: clients 0/3 share one job).
	plan, err := faultinject.Parse("daemon-kill=3")
	if err != nil {
		t.Fatal(err)
	}
	kj, kcache, kjobs, kreplay := openServiceJournals(t, dir)
	killed := false
	s1, err := New(Config{
		Cache: kcache, Jobs: kjobs, JobsReplay: kreplay,
		Plan: plan, Logf: t.Logf,
		Exit: func(int) { killed = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	// s1 is never started: a started server could finish (and journal as
	// done) an early job before the kill, so fewer than all accepted jobs
	// would reach the restart as unfinished.
	ids := map[string]bool{}
	for _, raw := range specs {
		spec, err := ParseJobSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		res := s1.SubmitTraced(spec, len(raw), telemetry.SpanContext{})
		if res.shed != nil {
			t.Fatalf("submit shed: %v", res.shed)
		}
		ids[res.job.ID] = true
	}
	if !killed {
		t.Fatal("daemon-kill never fired")
	}
	kjobs.Close()
	kj.Close()

	// Phase 2: restart over the same journals with a worker fleet; every
	// accepted job must finish without resubmission.
	cj, cache, jj, jrep := openServiceJournals(t, dir)
	defer cj.Close()
	defer jj.Close()
	pool, err := shard.NewPool(shard.Config{
		Workers: 2, LeaseTTL: 5 * time.Second, Spawn: inprocFleet(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cache.SetExecutor(pool)
	cache.SetRetries(2)
	reg := telemetry.NewRegistry()
	s2, err := New(Config{Cache: cache, Jobs: jj, JobsReplay: jrep, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("svf_service_jobs_replayed_total").Load(); got != uint64(len(ids)) {
		t.Fatalf("replayed jobs = %d, want %d (no accepted job may be lost)", got, len(ids))
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()

	want := referenceResults(t)
	var sorted []string
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		st := waitJobDone(t, ts2, id)
		if st["partial_failure"] != false {
			t.Errorf("replayed job %s degraded: %v", id, st)
		}
		if got := fetchResults(t, ts2, id); !bytes.Equal(got, want[id]) {
			t.Errorf("job %s post-restart results differ from the undisturbed run", id)
		}
	}
}

// TestChaosOverloadNeverGrows: a burst of submissions far past the
// admission bounds sheds with 429s while the queue accounting stays
// pinned at the limits — overload degrades service, it does not grow
// memory without bound.
func TestChaosOverloadNeverGrows(t *testing.T) {
	exec := newBlockingExec()
	defer close(exec.release)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Cache.SetExecutor(exec)
		c.MaxJobs = 2
	})
	var wg sync.WaitGroup
	var accepted, shed int64
	var mu sync.Mutex
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"job_deadline_ms":%d,"cells":[{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}]}`, 60_000+i)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted++
			case http.StatusTooManyRequests:
				shed++
			default:
				t.Errorf("burst submit %d = %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if accepted != 2 || shed != 22 {
		t.Errorf("accepted/shed = %d/%d, want 2/22", accepted, shed)
	}
	srv.mu.Lock()
	outstanding, outstandingBytes := srv.outstanding, srv.outstandingBytes
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if outstanding != 2 || jobs != 2 {
		t.Errorf("outstanding=%d jobs=%d after the burst, want 2/2", outstanding, jobs)
	}
	if outstandingBytes > srv.cfg.MaxQueueBytes {
		t.Errorf("queue bytes %d exceed the budget %d", outstandingBytes, srv.cfg.MaxQueueBytes)
	}
}

// openServiceJournals opens the daemon's dual journals under dir the way
// cmd/svfd does.
func openServiceJournals(t *testing.T, dir string) (cellsJr *journal.Journal, cache *sim.RunCache, jobsJr *journal.Journal, jobsRep *journal.Replay) {
	t.Helper()
	cellsJr, cellsRep, err := journal.Open(filepath.Join(dir, "cells"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache, _ = sim.NewRunCacheWithJournal(cellsJr, cellsRep)
	jobsJr, jobsRep, err = journal.Open(filepath.Join(dir, "jobs"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cellsJr, cache, jobsJr, jobsRep
}
