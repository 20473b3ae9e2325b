package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/shard"
	"svf/internal/sim"
	"svf/internal/telemetry"
)

// newTracedChaosServer is newChaosServer with the tracer wired through
// every layer the way cmd/svfd wires it: service, shard pool, run cache.
func newTracedChaosServer(t *testing.T, workers int, plan *faultinject.Plan, retries int) (*Server, *httptest.Server, *shard.Pool, *telemetry.Tracer) {
	t.Helper()
	tracer := telemetry.NewTracer()
	obs := &sim.Observer{Registry: telemetry.NewRegistry(), Tracer: tracer}
	cache := sim.NewRunCache()
	pool, err := shard.NewPool(shard.Config{
		Workers:  workers,
		LeaseTTL: 5 * time.Second,
		PoisonK:  3,
		Plan:     plan,
		Spawn:    inprocFleet(),
		Logf:     t.Logf,
		Obs:      obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache.SetExecutor(pool)
	cache.SetRetries(retries)
	cache.SetObserver(obs)
	srv, err := New(Config{
		Cache:    cache,
		Parallel: workers,
		Plan:     plan,
		Obs:      obs,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); pool.Close() })
	return srv, ts, pool, tracer
}

// fetchTrace GETs a job's Perfetto trace document.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// The chaos trace drill: a worker is kill -9'd mid-cell, the retry runs on
// a fresh worker, and the span tree still reads as one coherent story —
// the retry span parents to the same cell span as the killed attempt, every
// span's parent exists, and the rendered trace is byte-stable. Runs under
// -race in CI like the rest of the chaos suite.
func TestChaosTraceWorkerKillRetrySpans(t *testing.T) {
	plan, err := faultinject.Parse("worker-kill=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, pool, tracer := newTracedChaosServer(t, 2, plan, 3)

	code, resp := postJob(t, ts, chaosSpecs()[0])
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%v)", code, resp)
	}
	id := resp["id"].(string)
	if resp["trace_id"] == "" || resp["trace_url"] != "/v1/jobs/"+id+"/trace" {
		t.Fatalf("submit response missing trace fields: %v", resp)
	}
	st := waitJobDone(t, ts, id)
	if st["partial_failure"] != false {
		t.Fatalf("job degraded under chaos: %v", st)
	}
	if pool.Status().WorkerDeaths == 0 {
		t.Fatal("fault plan killed no workers — the drill tested nothing")
	}

	j, _ := srv.Job(id)
	trace := j.trace
	if trace != resp["trace_id"] {
		t.Errorf("job trace %s != submit response trace %v", trace, resp["trace_id"])
	}
	spans := tracer.Spans(trace)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	// Tree lint: exactly one root, every other span's parent exists, every
	// parent chain terminates at the root without cycles.
	byID := map[string]telemetry.Span{}
	roots := 0
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Parent == "" {
			roots++
			if sp.Name != "job" {
				t.Errorf("root span is %q, want job", sp.Name)
			}
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1", roots)
	}
	chainToRoot := func(sp telemetry.Span) []string {
		var names []string
		for hops := 0; sp.Parent != ""; hops++ {
			if hops > len(spans) {
				t.Fatalf("parent cycle at span %s", sp.ID)
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("span %s (%s) has orphan parent %s", sp.ID, sp.Name, sp.Parent)
			}
			sp = parent
			names = append(names, sp.Name)
		}
		return names
	}
	for _, sp := range spans {
		chainToRoot(sp)
	}

	// The killed attempt and its retry are siblings under one cell span:
	// a retry exists, its chain passes through a cell[...] span to the job
	// root, and its parent also owns a worker.run attempt.
	retries, attempts := 0, map[string]int{}
	for _, sp := range spans {
		if sp.Name == "worker.run" {
			attempts[sp.Parent]++
		}
	}
	for _, sp := range spans {
		if sp.Name != "retry" {
			continue
		}
		retries++
		chain := chainToRoot(sp)
		hasCell := false
		for _, name := range chain {
			if strings.HasPrefix(name, "cell[") {
				hasCell = true
			}
		}
		if !hasCell || chain[len(chain)-1] != "job" {
			t.Errorf("retry span chain %v does not pass cell → job", chain)
		}
		if attempts[sp.Parent] == 0 {
			t.Errorf("retry span is not a sibling of the original worker.run attempt")
		}
	}
	if retries == 0 {
		t.Error("worker was killed but no retry span was recorded")
	}

	// The rendered document is deterministic: two fetches, identical bytes.
	first := fetchTrace(t, ts, id)
	second := fetchTrace(t, ts, id)
	if !bytes.Equal(first, second) {
		t.Error("trace document differs between fetches of a done job")
	}
	if !bytes.Contains(first, []byte(`"retry"`)) {
		t.Error("rendered trace omits the retry span")
	}

	// The latency histograms surfaced with exemplars pointing at this
	// trace — exemplars ride the OpenMetrics exposition, so scrape like a
	// modern Prometheus does, with an openmetrics-text Accept header.
	mreq, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	mreq.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{"svf_job_queue_seconds", "svf_cell_run_seconds", "svf_lease_wait_seconds"} {
		if !bytes.Contains(metrics, []byte(name+"_count")) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !bytes.Contains(metrics, []byte(`trace_id="`+trace+`"`)) {
		t.Errorf("/metrics has no exemplar for trace %s", trace)
	}
	// Every retry the cache counted is a retry span in the trace.
	if m := regexp.MustCompile(`(?m)^svf_sim_retries_total (\d+)$`).FindSubmatch(metrics); m == nil {
		t.Error("/metrics missing svf_sim_retries_total")
	} else if string(m[1]) != strconv.Itoa(retries) {
		t.Errorf("trace shows %d retry span(s), svf_sim_retries_total = %s", retries, m[1])
	}
	if !bytes.HasSuffix(bytes.TrimRight(metrics, "\n"), []byte("# EOF")) {
		t.Error("OpenMetrics exposition does not end with # EOF")
	}

	// A plain scrape (no Accept header) must stay valid classic 0.0.4
	// text: no exemplar syntax, no OpenMetrics EOF marker.
	presp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("plain scrape Content-Type = %q", ct)
	}
	if bytes.Contains(plain, []byte("# {")) || bytes.Contains(plain, []byte("# EOF")) {
		t.Error("classic /metrics scrape contains OpenMetrics-only syntax")
	}
}

// With no tracer configured the daemon still serves a valid, empty trace
// document and byte-identical results — tracing is never load-bearing.
func TestTraceEndpointWithTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, resp := postJob(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := resp["id"].(string)
	waitJobDone(t, ts, id)
	doc := fetchTrace(t, ts, id)
	if !bytes.Contains(doc, []byte("traceEvents")) {
		t.Errorf("disabled-tracing trace doc = %s", doc)
	}
	if bytes.Contains(doc, []byte(`"ph":"X"`)) {
		t.Errorf("disabled-tracing doc has slices: %s", doc)
	}
}
