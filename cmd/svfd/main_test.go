package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// svfdBin is the binary built once by TestMain for the CLI-level drills.
var svfdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "svfd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	svfdBin = filepath.Join(dir, "svfd")
	out, err := exec.Command("go", "build", "-o", svfdBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building svfd: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// daemon is one running svfd process under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // service listener, from "svfd: listening on ..."
	obs    string // observability listener, from "obs: listening on ..."
	stderr *bytes.Buffer
	stdout *bytes.Buffer
	mu     sync.Mutex
	waited bool
	state  *os.ProcessState
}

// startDaemon launches svfd and waits for the ready line, harvesting the
// printed listener addresses on the way.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{stderr: &bytes.Buffer{}, stdout: &bytes.Buffer{}}
	d.cmd = exec.Command(svfdBin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = d.stderr
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		d.wait()
	})
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stdout.WriteString(line + "\n")
			if a, ok := strings.CutPrefix(line, "svfd: listening on "); ok {
				d.addr = a
			}
			if a, ok := strings.CutPrefix(line, "obs: listening on "); ok {
				d.obs = a
			}
			d.mu.Unlock()
			if line == "svfd: ready" {
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("svfd never became ready; stderr:\n%s", d.stderr.String())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.addr == "" {
		t.Fatal("svfd printed no listener address")
	}
	return d
}

// wait reaps the process once and returns its exit code.
func (d *daemon) wait() int {
	d.mu.Lock()
	if !d.waited {
		d.waited = true
		d.mu.Unlock()
		err := d.cmd.Wait()
		d.mu.Lock()
		if ee, ok := err.(*exec.ExitError); ok {
			d.state = ee.ProcessState
		} else {
			d.state = d.cmd.ProcessState
		}
	}
	defer d.mu.Unlock()
	if d.state == nil {
		return 0
	}
	return d.state.ExitCode()
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func smallSpec() string {
	return `{"cells":[
		{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}},
		{"kind":"traffic","bench":"186.crafty.ref","policy":"svf","max_insts":2000}
	]}`
}

func postSpec(t *testing.T, d *daemon, spec string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(d.url("/v1/jobs"), "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// getJSON fetches one JSON document from the daemon.
func getJSON(t *testing.T, d *daemon, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func waitDone(t *testing.T, d *daemon, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url("/v1/jobs/" + id))
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st["state"] == "done" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish; stderr:\n%s", id, d.stderr.String())
	return nil
}

func getResults(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url("/v1/jobs/" + id + "/results"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeAndGracefulDrain: the daemon serves the full API (including
// /readyz reporting both bound listener addresses), concurrent identical
// submissions dedupe onto one job, then SIGTERM drains and exits 0.
func TestServeAndGracefulDrain(t *testing.T) {
	d := startDaemon(t, "-obs-addr", "127.0.0.1:0")
	if d.obs == "" {
		t.Fatal("svfd printed no obs listener address")
	}

	// /readyz exposes both bound addresses for port discovery.
	resp, err := http.Get(d.url("/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready["ready"] != true || ready["listen"] != d.addr || ready["obs"] != d.obs {
		t.Errorf("/readyz = %v, want ready with listen=%s obs=%s", ready, d.addr, d.obs)
	}

	code, sub := postSpec(t, d, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%v)", code, sub)
	}
	id := sub["id"].(string)

	// Four concurrent clients resubmitting the same spec all dedupe onto
	// that job: same content fingerprint, nothing re-admitted.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(d.url("/v1/jobs"), "application/json", strings.NewReader(smallSpec()))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			json.NewDecoder(resp.Body).Decode(&out) // a bad body fails the id check
			if resp.StatusCode != http.StatusOK || out["id"] != id {
				t.Errorf("concurrent resubmission = %d %v, want %d %s", resp.StatusCode, out, http.StatusOK, id)
			}
		}()
	}
	wg.Wait()
	if svc, _ := getJSON(t, d, "/v1/progress")["service"].(map[string]any); svc["jobs_total"] != float64(1) {
		t.Errorf("/v1/progress service = %v, want jobs_total 1", svc)
	}

	waitDone(t, d, id)
	if lines := bytes.Split(bytes.TrimSpace(getResults(t, d, id)), []byte("\n")); len(lines) != 2 {
		t.Fatalf("results lines = %d, want 2", len(lines))
	}

	// The obs listener serves the classic endpoints.
	for _, path := range []string{"/metrics", "/progress"} {
		resp, err := http.Get("http://" + d.obs + path)
		if err != nil {
			t.Fatalf("obs %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("obs %s = %d", path, resp.StatusCode)
		}
	}

	// SIGTERM: graceful drain, exit 0, journals flushed (none here), the
	// drain narrated on stderr.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(); code != 0 {
		t.Fatalf("exit code after SIGTERM = %d, want 0; stderr:\n%s", code, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained") {
		t.Errorf("stderr does not narrate the drain:\n%s", d.stderr.String())
	}
}

// TestDaemonKillResume is the CLI kill -9 drill: the daemon-kill
// injection terminates the daemon (exit 137) right after a job's
// accepted record is durable; a restart on the same journal — now over a
// real two-worker fleet — says so on stderr, replays the job, finishes it,
// serves results byte-identical to an undisturbed daemon's, and drains to
// exit 0 on SIGTERM.
func TestDaemonKillResume(t *testing.T) {
	dir := t.TempDir()

	killed := startDaemon(t, "-journal", dir, "-inject", "daemon-kill=1")
	// The process dies inside the accept path; the response may be lost.
	http.Post(killed.url("/v1/jobs"), "application/json", strings.NewReader(smallSpec()))
	if code := killed.wait(); code != 137 {
		t.Fatalf("injected kill: exit code = %d, want 137; stderr:\n%s", code, killed.stderr.String())
	}

	revived := startDaemon(t, "-journal", dir, "-workers", "2")
	// The client lost the 202, so discover the replayed job via /v1/progress.
	prog := getJSON(t, revived, "/v1/progress")
	jobs, _ := prog["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("restarted daemon lost the accepted job: progress = %v", prog)
	}
	id := jobs[0].(map[string]any)["id"].(string)

	st := waitDone(t, revived, id)
	if st["partial_failure"] != false {
		t.Fatalf("replayed job degraded: %v", st)
	}
	got := getResults(t, revived, id)

	// Reference: the same spec on an undisturbed journal-less daemon.
	ref := startDaemon(t)
	code, sub := postSpec(t, ref, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	if sub["id"] != id {
		t.Fatalf("content fingerprint diverged: %v vs %s", sub["id"], id)
	}
	waitDone(t, ref, id)
	if want := getResults(t, ref, id); !bytes.Equal(got, want) {
		t.Errorf("post-kill results differ from the undisturbed run:\n%s\nvs\n%s", got, want)
	}

	if err := revived.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := revived.wait(); code != 0 {
		t.Fatalf("restarted daemon: exit code after SIGTERM = %d, want 0; stderr:\n%s", code, revived.stderr.String())
	}
	if !strings.Contains(revived.stderr.String(), "unfinished re-enqueued") {
		t.Errorf("restarted daemon does not report the re-enqueue:\n%s", revived.stderr.String())
	}
}

// TestOverloadSheds429: with -max-jobs 1 a second concurrent job sheds
// with 429 + Retry-After while the first is still running.
func TestOverloadSheds429(t *testing.T) {
	d := startDaemon(t, "-max-jobs", "1")
	slow := `{"cells":[{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":30000000}}]}`
	if code, _ := postSpec(t, d, slow); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	resp, err := http.Post(d.url("/v1/jobs"), "application/json",
		strings.NewReader(`{"cells":[{"kind":"run","bench":"164.gzip.log","opt":{"MaxInsts":2000}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestWorkerModeRefusesJournal: a worker handed the daemon's journal flag
// is a usage error, not a lock fight.
func TestWorkerModeRefusesJournal(t *testing.T) {
	cmd := exec.Command(svfdBin, "-worker", "-journal", t.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2", err)
	}
	if !strings.Contains(stderr.String(), "journal") {
		t.Errorf("stderr does not explain the refusal:\n%s", stderr.String())
	}
}

// getTrace fetches a job's Perfetto trace document from the daemon.
func getTrace(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url("/v1/jobs/" + id + "/trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceKillResume is the acceptance drill for distributed tracing: a
// daemon completes one job (its cells now durable in the cells journal),
// accepts a second overlapping job, and is kill -9'd mid-accept. The
// restarted daemon replays the second job, serves its previously-journaled
// cell as a journal.replay span, and GET /v1/jobs/{id}/trace returns a
// complete, fully-parented span tree, byte-identical across refetches.
func TestTraceKillResume(t *testing.T) {
	dir := t.TempDir()
	runCell := `{"kind":"run","bench":"186.crafty.ref","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}`
	specA := `{"cells":[` + runCell + `,{"kind":"traffic","bench":"186.crafty.ref","policy":"svf","max_insts":2000}]}`
	specB := `{"cells":[` + runCell + `]}`

	// Phase 1: job A completes (cells journaled); the kill fires inside
	// job B's accept, after its accepted record is durable.
	d1 := startDaemon(t, "-journal", dir, "-inject", "daemon-kill=2")
	code, subA := postSpec(t, d1, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit A = %d", code)
	}
	if subA["trace_id"] == "" || subA["trace_url"] == "" {
		t.Fatalf("submit response missing trace fields: %v", subA)
	}
	idA := subA["id"].(string)
	waitDone(t, d1, idA)
	http.Post(d1.url("/v1/jobs"), "application/json", strings.NewReader(specB))
	if code := d1.wait(); code != 137 {
		t.Fatalf("injected kill: exit = %d, want 137; stderr:\n%s", code, d1.stderr.String())
	}

	// Phase 2: restart over the same journal with a worker fleet. Job B
	// replays, its crafty cell restores from the cells journal, and a
	// deduped resubmission recovers the lost job ID and trace ID.
	d2 := startDaemon(t, "-journal", dir, "-workers", "2")
	code, subB := postSpec(t, d2, specB)
	if code != http.StatusOK || subB["deduped"] != true {
		t.Fatalf("resubmit B = %d (%v), want 200 deduped", code, subB)
	}
	idB := subB["id"].(string)
	traceB := subB["trace_id"].(string)
	if traceB == "" || idB == idA {
		t.Fatalf("replayed job B has id=%s trace=%s", idB, traceB)
	}
	waitDone(t, d2, idB)

	first := getTrace(t, d2, idB)
	second := getTrace(t, d2, idB)
	if !bytes.Equal(first, second) {
		t.Error("trace document differs between refetches")
	}
	if !bytes.Contains(first, []byte("journal.replay")) {
		t.Errorf("replayed trace has no journal.replay span:\n%s", first)
	}

	// Lint the span tree: one root, every parent resolves, sane times.
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	str_ := func(v any) string { s, _ := v.(string); return s }
	ids := map[string]bool{}
	roots := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		ids[str_(ev.Args["span"])] = true
		if str_(ev.Args["parent"]) == "" {
			roots++
		}
		if ev.TS < 0 || ev.Dur <= 0 {
			t.Errorf("span %s has ts=%d dur=%d", str_(ev.Args["span"]), ev.TS, ev.Dur)
		}
		if str_(ev.Args["trace"]) != traceB {
			t.Errorf("span carries trace %q, want %q", str_(ev.Args["trace"]), traceB)
		}
	}
	if len(ids) == 0 || roots != 1 {
		t.Fatalf("span tree has %d spans and %d roots, want >0 and exactly 1", len(ids), roots)
	}
	for _, ev := range doc.TraceEvents {
		if p := str_(ev.Args["parent"]); ev.Ph == "X" && p != "" && !ids[p] {
			t.Errorf("orphan span %s: parent %s not in document", str_(ev.Args["span"]), p)
		}
	}

	// The latency histograms are exposed with exemplars on the service's
	// own /metrics endpoint when scraped as OpenMetrics (exemplars are not
	// part of the classic text format).
	req, err := http.NewRequest("GET", d2.url("/metrics"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"svf_job_queue_seconds", "svf_cell_run_seconds", "svf_lease_wait_seconds"} {
		if !bytes.Contains(metrics, []byte(name+"_count")) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !bytes.Contains(metrics, []byte(`trace_id="`)) {
		t.Error("/metrics has no trace exemplars")
	}
}
