package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// testSpec returns a small two-cell job spec: one timing run and one
// traffic measurement, both over a real bundled workload kept fast via
// the instruction budgets.
func testSpec() string {
	return `{"cells":[
		{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}},
		{"kind":"traffic","bench":"186.crafty.ref","policy":"svf","max_insts":2000}
	]}`
}

// newTestServer builds a started Server over an in-memory cache plus its
// HTTP test frontend. mut may adjust the Config before construction.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Cache: sim.NewRunCache(),
		Obs:   &sim.Observer{Registry: telemetry.NewRegistry(), Progress: telemetry.NewProgress()},
		Logf:  t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJob submits body and decodes the response JSON.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// waitJobDone polls the status endpoint until the job reports done.
func waitJobDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st["state"] == JobDone {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return nil
}

// fetchResults streams the job's NDJSON results to completion.
func fetchResults(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSubmitStatusResults is the happy path: accept, execute, report
// per-cell state, stream deterministic results, dedupe a resubmission.
func TestSubmitStatusResults(t *testing.T) {
	_, ts := newTestServer(t, nil)

	code, resp := postJob(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d (%v)", code, resp)
	}
	id, _ := resp["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", resp)
	}
	if resp["deduped"] != false || resp["cells"] != float64(2) {
		t.Errorf("submit response = %v", resp)
	}

	st := waitJobDone(t, ts, id)
	if st["partial_failure"] != false || st["failed_cells"] != float64(0) {
		t.Errorf("clean job reported failure: %v", st)
	}
	counts, _ := st["counts"].(map[string]any)
	if counts[CellDone] != float64(2) {
		t.Errorf("counts = %v, want 2 done", counts)
	}

	lines := bytes.Split(bytes.TrimSpace(fetchResults(t, ts, id)), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("results lines = %d, want 2", len(lines))
	}
	var run, traffic map[string]any
	if err := json.Unmarshal(lines[0], &run); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &traffic); err != nil {
		t.Fatal(err)
	}
	if run["status"] != CellDone || run["result"] == nil {
		t.Errorf("run line = %s", lines[0])
	}
	if traffic["status"] != CellDone || traffic["traffic"] == nil {
		t.Errorf("traffic line = %s", lines[1])
	}

	// An identical resubmission coalesces onto the existing job.
	code, resp = postJob(t, ts, testSpec())
	if code != http.StatusOK || resp["deduped"] != true || resp["id"] != id {
		t.Errorf("resubmit = %d %v, want 200 deduped onto %s", code, resp, id)
	}

	// Two fetches of the same results are byte-identical.
	if again := fetchResults(t, ts, id); !bytes.Equal(again, append(bytes.Join(lines, []byte("\n")), '\n')) {
		t.Error("second results fetch differs from the first")
	}
}

// blockingExec is an Executor whose runs block until released (or their
// context ends), for admission and deadline tests.
type blockingExec struct {
	release chan struct{}
	started chan struct{} // buffered; one send per ExecRun entry
}

func newBlockingExec() *blockingExec {
	return &blockingExec{release: make(chan struct{}), started: make(chan struct{}, 64)}
}

func (e *blockingExec) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	e.started <- struct{}{}
	select {
	case <-e.release:
		return sim.RunContext(ctx, prof, opt)
	case <-ctx.Done():
		return nil, fmt.Errorf("sim: %s: %w", prof.ID(), ctx.Err())
	}
}

func (e *blockingExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	select {
	case <-e.release:
	case <-ctx.Done():
		return 0, 0, 0, ctx.Err()
	}
	return 0, 0, 0, nil
}

func runSpec(bench string, insts int) string {
	return fmt.Sprintf(`{"cells":[{"kind":"run","bench":%q,"opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":%d}}]}`, bench, insts)
}

// TestAdmissionOverload: beyond -max-jobs the daemon sheds with 429 and
// Retry-After; a dedupe retry of an admitted job is never shed; capacity
// freed by a finished job admits again.
func TestAdmissionOverload(t *testing.T) {
	exec := newBlockingExec()
	srv, ts := newTestServer(t, func(c *Config) {
		c.Cache.SetExecutor(exec)
		c.MaxJobs = 1
	})

	code, first := postJob(t, ts, runSpec("186.crafty.ref", 2000))
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-exec.started // the job is on the executor, holding its slot

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(runSpec("164.gzip.log", 2000)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := srv.cfg.Obs.Registry.Counter(`svf_service_rejected_total{reason="overload"}`).Load(); got != 1 {
		t.Errorf("overload rejections = %d, want 1", got)
	}

	// A retry of the admitted job dedupes instead of shedding.
	code, again := postJob(t, ts, runSpec("186.crafty.ref", 2000))
	if code != http.StatusOK || again["id"] != first["id"] {
		t.Errorf("dedupe under overload = %d %v", code, again)
	}

	close(exec.release)
	waitJobDone(t, ts, first["id"].(string))
	if code, _ := postJob(t, ts, runSpec("164.gzip.log", 2000)); code != http.StatusAccepted {
		t.Errorf("post-drain submit = %d, want 202", code)
	}
}

// TestAdmissionByteBudget: the queue's byte budget sheds before the job
// count does.
func TestAdmissionByteBudget(t *testing.T) {
	exec := newBlockingExec()
	defer close(exec.release)
	_, ts := newTestServer(t, func(c *Config) {
		c.Cache.SetExecutor(exec)
		c.MaxQueueBytes = int64(len(runSpec("186.crafty.ref", 2000)) + 10)
	})
	if code, _ := postJob(t, ts, runSpec("186.crafty.ref", 2000)); code != http.StatusAccepted {
		t.Fatalf("first submit rejected")
	}
	code, _ := postJob(t, ts, runSpec("164.gzip.log", 2000))
	if code != http.StatusTooManyRequests {
		t.Errorf("over-budget submit = %d, want 429", code)
	}
}

// TestBadRequests: malformed specs get typed 400s, oversized bodies 413.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"cells":[]}`, http.StatusBadRequest},
		{`{"cells":[{"kind":"run","bench":"no.such.bench"}]}`, http.StatusBadRequest},
		{`{"cells":[{"kind":"run","bench":"186.crafty.ref"}],"bogus":1}`, http.StatusBadRequest},
		{`{"cells":[{"kind":"run","bench":"186.crafty.ref","opt":{"MaxInsts":1}}]}` + strings.Repeat(" ", 300), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		code, resp := postJob(t, ts, c.body)
		if code != c.want {
			t.Errorf("submit %.40q = %d, want %d", c.body, code, c.want)
		}
		if code == http.StatusBadRequest {
			if msg, _ := resp["error"].(string); !strings.HasPrefix(msg, "bad job spec:") && !strings.Contains(msg, "body") {
				t.Errorf("400 error message %q lacks the typed prefix", msg)
			}
		}
	}
}

// TestTrafficCellPolicies: a traffic cell takes any stack structure's
// policy name and rejects the baseline, which has no structure to measure.
func TestTrafficCellPolicies(t *testing.T) {
	spec := func(policy string) []byte {
		return []byte(`{"cells":[{"kind":"traffic","bench":"186.crafty.ref","policy":"` + policy + `"}]}`)
	}
	for _, name := range []string{"svf", "stackcache", "rse"} {
		if _, err := ParseJobSpec(spec(name)); err != nil {
			t.Errorf("policy %q: %v", name, err)
		}
	}
	for _, name := range []string{"baseline", "bogus"} {
		want := `unknown policy "` + name + `" (want rse, stackcache, svf)`
		if _, err := ParseJobSpec(spec(name)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("policy %q: err = %v, want %q", name, err, want)
		}
	}
}

// TestCellDeadline: a spec's per-cell deadline cancels the cell, the job
// still completes, and the status reports the partial failure.
func TestCellDeadline(t *testing.T) {
	exec := newBlockingExec() // never released: every run waits out its deadline
	_, ts := newTestServer(t, func(c *Config) { c.Cache.SetExecutor(exec) })

	body := `{"cell_deadline_ms":50,"cells":[{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}]}`
	code, resp := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	st := waitJobDone(t, ts, resp["id"].(string))
	if st["partial_failure"] != true {
		t.Errorf("deadline job not a partial failure: %v", st)
	}
	cells := st["cells"].([]any)
	if got := cells[0].(map[string]any)["status"]; got != CellDeadline {
		t.Errorf("cell status = %v, want %q", got, CellDeadline)
	}
}

// TestJobDeadlineSkipsQueuedCells: when the job deadline fires while
// cells still wait for an execution slot, those cells terminate as
// deadline without ever executing.
func TestJobDeadlineSkipsQueuedCells(t *testing.T) {
	exec := newBlockingExec()
	defer close(exec.release)
	_, ts := newTestServer(t, func(c *Config) {
		c.Cache.SetExecutor(exec)
		c.Parallel = 1
	})
	body := `{"job_deadline_ms":80,"cells":[
		{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}},
		{"kind":"run","bench":"164.gzip.log","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}
	]}`
	code, resp := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	st := waitJobDone(t, ts, resp["id"].(string))
	counts, _ := st["counts"].(map[string]any)
	if counts[CellDone] != nil {
		t.Errorf("counts = %v, want no done cells", counts)
	}
	if st["failed_cells"] != float64(2) {
		t.Errorf("failed_cells = %v, want 2", st["failed_cells"])
	}
}

// poisonExecErr is the quarantine verdict an executor (the shard pool)
// reports for a cell that kept killing workers.
type poisonExecErr struct{ bench string }

func (e *poisonExecErr) Error() string        { return "poison cell quarantined: " + e.bench }
func (e *poisonExecErr) PermanentFault() bool { return true }

// poisonExec fails one bench permanently and runs everything else.
type poisonExec struct{ bench string }

func (e *poisonExec) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	if prof.ID() == e.bench {
		return nil, &poisonExecErr{bench: e.bench}
	}
	return sim.RunContext(ctx, prof, opt)
}

func (e *poisonExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	return 0, 0, 0, &poisonExecErr{bench: e.bench}
}

// TestPoisonQuarantinePartialFailure: a poison cell lands as status
// "quarantined", the job's healthy cells still finish, and the job
// reports partial failure instead of failing wholesale.
func TestPoisonQuarantinePartialFailure(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Cache.SetExecutor(&poisonExec{bench: "164.gzip.log"})
	})
	body := `{"cells":[
		{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}},
		{"kind":"run","bench":"164.gzip.log","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}
	]}`
	code, resp := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	st := waitJobDone(t, ts, resp["id"].(string))
	if st["partial_failure"] != true || st["failed_cells"] != float64(1) {
		t.Fatalf("status = %v, want 1 quarantined cell", st)
	}
	counts := st["counts"].(map[string]any)
	if counts[CellQuarantined] != float64(1) || counts[CellDone] != float64(1) {
		t.Errorf("counts = %v, want 1 quarantined + 1 done", counts)
	}

	// The results stream still carries the healthy cell's payload and the
	// quarantined cell's error.
	lines := bytes.Split(bytes.TrimSpace(fetchResults(t, ts, resp["id"].(string))), []byte("\n"))
	var quarantined map[string]any
	if err := json.Unmarshal(lines[1], &quarantined); err != nil {
		t.Fatal(err)
	}
	if quarantined["status"] != CellQuarantined || quarantined["error"] == "" {
		t.Errorf("quarantined line = %s", lines[1])
	}
}

// TestDrain: draining flips /readyz and admission to 503 while in-flight
// jobs finish; a stuck job is canceled at the timeout and its cells
// terminate as canceled.
func TestDrain(t *testing.T) {
	exec := newBlockingExec() // never released: drain must cancel
	srv, ts := newTestServer(t, func(c *Config) { c.Cache.SetExecutor(exec) })

	code, resp := postJob(t, ts, runSpec("186.crafty.ref", 2000))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	<-exec.started

	done := make(chan error, 1)
	go func() { done <- srv.Drain(100 * time.Millisecond) }()

	// Admission flips promptly, before the drain finishes.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", r.StatusCode)
	}
	if code, _ := postJob(t, ts, runSpec("164.gzip.log", 2000)); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := waitJobDone(t, ts, resp["id"].(string))
	cells := st["cells"].([]any)
	if got := cells[0].(map[string]any)["status"]; got != CellCanceled {
		t.Errorf("cell status after forced drain = %v, want %q", got, CellCanceled)
	}
}

// TestRestartReplay is the in-process kill -9 drill: the daemon-kill
// injection kills the server right after a job's accepted record is
// durable; a second server over the same journals replays the job, runs
// it, and streams results byte-identical to an undisturbed server's.
func TestRestartReplay(t *testing.T) {
	dir := t.TempDir()
	openJournals := func(plan *faultinject.Plan) (*journal.Journal, *sim.RunCache, *journal.Journal, *journal.Replay) {
		t.Helper()
		cellsJr, cellsRep, err := journal.Open(filepath.Join(dir, "cells"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache, _ := sim.NewRunCacheWithJournal(cellsJr, cellsRep)
		jobsJr, jobsRep, err := journal.Open(filepath.Join(dir, "jobs"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return cellsJr, cache, jobsJr, jobsRep
	}

	// First daemon: dies (Exit seam) after accepting the job.
	plan, err := faultinject.Parse("daemon-kill=1")
	if err != nil {
		t.Fatal(err)
	}
	cellsJr, cache, jobsJr, jobsRep := openJournals(plan)
	exitCode := -1
	s1, err := New(Config{
		Cache: cache, Jobs: jobsJr, JobsReplay: jobsRep,
		Plan: plan, Logf: t.Logf,
		Exit: func(code int) { exitCode = code },
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	spec, err := ParseJobSpec([]byte(testSpec()))
	if err != nil {
		t.Fatal(err)
	}
	res := s1.SubmitTraced(spec, len(testSpec()), telemetry.SpanContext{})
	if res.shed != nil {
		t.Fatalf("submit shed: %v", res.shed)
	}
	if exitCode != 137 {
		t.Fatalf("daemon-kill exit code = %d, want 137", exitCode)
	}
	id := res.job.ID
	// The "dead" daemon's journals must be released before the restart
	// (the flock allows one opener per directory).
	if err := jobsJr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cellsJr.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted daemon: replays the accepted job and runs it.
	cellsJr2, cache2, jobsJr2, jobsRep2 := openJournals(nil)
	defer cellsJr2.Close()
	defer jobsJr2.Close()
	reg := telemetry.NewRegistry()
	s2, err := New(Config{Cache: cache2, Jobs: jobsJr2, JobsReplay: jobsRep2, Obs: &sim.Observer{Registry: reg}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("svf_service_jobs_replayed_total").Load(); got != 1 {
		t.Fatalf("replayed jobs = %d, want 1", got)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	st := waitJobDone(t, ts2, id)
	if st["partial_failure"] != false {
		t.Fatalf("replayed job failed: %v", st)
	}
	replayedResults := fetchResults(t, ts2, id)

	// Reference: the same spec on an undisturbed in-memory server.
	_, tsRef := newTestServer(t, nil)
	code, refResp := postJob(t, tsRef, testSpec())
	if code != http.StatusAccepted || refResp["id"] != id {
		t.Fatalf("reference submit = %d id %v, want 202 id %s", code, refResp["id"], id)
	}
	waitJobDone(t, tsRef, id)
	if refResults := fetchResults(t, tsRef, id); !bytes.Equal(replayedResults, refResults) {
		t.Errorf("post-restart results differ from the undisturbed run:\n%s\nvs\n%s", replayedResults, refResults)
	}
}

// TestRestartSkipsDoneJobs: a job whose done record landed is restored as
// history, not re-executed, and its results remain fetchable.
func TestRestartSkipsDoneJobs(t *testing.T) {
	dir := t.TempDir()
	open := func() (*journal.Journal, *sim.RunCache, *journal.Journal, *journal.Replay) {
		cellsJr, cellsRep, err := journal.Open(filepath.Join(dir, "cells"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache, _ := sim.NewRunCacheWithJournal(cellsJr, cellsRep)
		jobsJr, jobsRep, err := journal.Open(filepath.Join(dir, "jobs"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return cellsJr, cache, jobsJr, jobsRep
	}

	cellsJr, cache, jobsJr, jobsRep := open()
	s1, err := New(Config{Cache: cache, Jobs: jobsJr, JobsReplay: jobsRep, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	code, resp := postJob(t, ts1, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := resp["id"].(string)
	waitJobDone(t, ts1, id)
	want := fetchResults(t, ts1, id)
	ts1.Close()
	s1.Close()
	jobsJr.Close()
	cellsJr.Close()

	cellsJr2, cache2, jobsJr2, jobsRep2 := open()
	defer cellsJr2.Close()
	defer jobsJr2.Close()
	reg := telemetry.NewRegistry()
	s2, err := New(Config{Cache: cache2, Jobs: jobsJr2, JobsReplay: jobsRep2, Obs: &sim.Observer{Registry: reg}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("svf_service_jobs_replayed_total").Load(); got != 0 {
		t.Errorf("done job re-enqueued on restart (replayed = %d)", got)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	if st := waitJobDone(t, ts2, id); st["state"] != JobDone {
		t.Fatalf("restored job state = %v", st["state"])
	}
	if got := fetchResults(t, ts2, id); !bytes.Equal(got, want) {
		t.Errorf("restored results differ:\n%s\nvs\n%s", got, want)
	}
}

// TestAcceptStallHoldsSlot: an injected accept stall keeps its admission
// slot occupied, so a concurrent submission sees the queue full.
func TestAcceptStallHoldsSlot(t *testing.T) {
	plan, err := faultinject.Parse("accept-stall=1")
	if err != nil {
		t.Fatal(err)
	}
	exec := newBlockingExec()
	defer close(exec.release)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Cache.SetExecutor(exec)
		c.MaxJobs = 1
		c.Plan = plan
		c.AcceptStallDur = 2 * time.Second
	})

	stalledSpec, err := ParseJobSpec([]byte(runSpec("186.crafty.ref", 2000)))
	if err != nil {
		t.Fatal(err)
	}
	stalled := make(chan int, 1)
	go func() {
		code, _ := postJob(t, ts, runSpec("186.crafty.ref", 2000))
		stalled <- code
	}()
	// The stall begins only after the job is registered; once it is
	// visible, its admission slot is provably held for the stall duration.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := srv.Job(stalledSpec.ID()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled job never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := postJob(t, ts, runSpec("164.gzip.log", 2000)); code != http.StatusTooManyRequests {
		t.Errorf("submission during accept-stall = %d, want 429", code)
	}
	if got := <-stalled; got != http.StatusAccepted {
		t.Errorf("stalled submission = %d, want 202", got)
	}
}

// TestConcurrentProgressAndMetricsScrape hammers /v1/progress and
// /metrics while jobs run — the -race guard for the observation paths.
func TestConcurrentProgressAndMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var wg sync.WaitGroup
	stopScrape := make(chan struct{})
	for _, path := range []string{"/v1/progress", "/metrics", "/healthz", "/readyz"} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for {
					select {
					case <-stopScrape:
						return
					default:
					}
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(path)
		}
	}
	var ids []string
	for _, bench := range []string{"186.crafty.ref", "164.gzip.log", "181.mcf.inp"} {
		code, resp := postJob(t, ts, runSpec(bench, 2000))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", bench, code)
		}
		ids = append(ids, resp["id"].(string))
	}
	for _, id := range ids {
		waitJobDone(t, ts, id)
	}
	close(stopScrape)
	wg.Wait()

	// The progress payload carries both the campaign snapshot and the
	// service's job accounting.
	resp, err := http.Get(ts.URL + "/v1/progress")
	if err != nil {
		t.Fatal(err)
	}
	var prog map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	svc, _ := prog["service"].(map[string]any)
	if svc["jobs_total"] != float64(3) || svc["jobs_outstanding"] != float64(0) {
		t.Errorf("service accounting = %v", svc)
	}
	if len(prog["jobs"].([]any)) != 3 {
		t.Errorf("job rows = %v", prog["jobs"])
	}
}
