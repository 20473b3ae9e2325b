package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// stubExec answers every cell with an empty result, so a test can drive
// many jobs through a server without simulating. A cell takes perInst for
// each instruction of its budget, and with fail set a run cell whose
// budget is a multiple of 7 fails with a non-retryable error.
type stubExec struct {
	perInst time.Duration
	fail    bool
}

func (e stubExec) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	time.Sleep(time.Duration(opt.MaxInsts) * e.perInst)
	if e.fail && opt.MaxInsts%7 == 0 {
		return nil, errors.New("stub: budget a multiple of 7")
	}
	return &sim.Result{Bench: prof.ID()}, nil
}

func (e stubExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	time.Sleep(time.Duration(maxInsts) * e.perInst)
	return 0, 0, 0, nil
}

// submit parses body and admits it to s, failing the test on a rejection.
func submit(t *testing.T, s *Server, body string) *Job {
	t.Helper()
	spec, err := ParseJobSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	res := s.SubmitTraced(spec, len(body), telemetry.SpanContext{})
	if res.shed != nil {
		t.Fatalf("submit shed: %v", res.shed)
	}
	return res.job
}

// TestJobsShareCells: two jobs that name one cell, spelled differently,
// hold the same *CellSpec, and so does the replay of both from the jobs
// journal, and a job submitted after the restart. The second job's
// journaled spec spells the shared cell as the first job did, and still
// resolves to the second job's ID.
func TestJobsShareCells(t *testing.T) {
	dir := t.TempDir()
	crafty := func(name string) string {
		return fmt.Sprintf(`{"kind":"run","bench":%q,"opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}`, name)
	}
	specA := `{"cells":[` + crafty("186.crafty") + `,{"kind":"traffic","bench":"164.gzip","policy":"svf","max_insts":2000}]}`
	specB := `{"cells":[` + crafty("186.crafty.ref") + `,{"kind":"run","bench":"181.mcf.inp","opt":{"Policy":1,"SVFInfinite":true,"MaxInsts":2000}}]}`

	cellsJr, cache, jobsJr, jobsRep := openServiceJournals(t, dir)
	cache.SetExecutor(stubExec{})
	s1, err := New(Config{Cache: cache, Jobs: jobsJr, JobsReplay: jobsRep, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	a, b := submit(t, s1, specA), submit(t, s1, specB)
	if a.spec.Cells[0] != b.spec.Cells[0] {
		t.Fatal("two jobs naming one cell hold different *CellSpecs")
	}
	if a.spec.Cells[0].prof != synth.Bundled("186.crafty") {
		t.Error("a bench cell does not hold synth's shared profile")
	}
	if err := s1.Drain(0); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	jobsJr.Close()
	cellsJr.Close()

	cellsJr, cache, jobsJr, jobsRep = openServiceJournals(t, dir)
	cache.SetExecutor(stubExec{})
	defer cellsJr.Close()
	defer jobsJr.Close()
	for _, rec := range jobsRep.Records {
		var jr jobRecord
		if err := json.Unmarshal(rec.Data, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.ID != b.ID {
			continue
		}
		spec, err := ParseJobSpec(jr.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Cells[0].Bench; got != "186.crafty" {
			t.Errorf("journaled shared cell spelled %q, want the first submitter's %q", got, "186.crafty")
		}
		if got := spec.ID(); got != b.ID {
			t.Errorf("journaled spec resolves to job %s, want %s", got, b.ID)
		}
	}
	s2, err := New(Config{Cache: cache, Jobs: jobsJr, JobsReplay: jobsRep, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Start()
	ra, okA := s2.Job(a.ID)
	rb, okB := s2.Job(b.ID)
	if !okA || !okB {
		t.Fatalf("replay lost a job (a %v, b %v)", okA, okB)
	}
	if ra.spec.Cells[0] != rb.spec.Cells[0] {
		t.Error("replayed jobs naming one cell hold different *CellSpecs")
	}
	if c := submit(t, s2, `{"cells":[`+crafty("186.crafty.ref")+`]}`); c.spec.Cells[0] != ra.spec.Cells[0] {
		t.Error("a job submitted after the restart does not share the replayed cell")
	}
}

// TestPriorJournalReplays: testdata/prior-journal holds a jobs and a cells
// journal written by svfd before cells were interned (commit 5c31720), with
// the status document and results stream that build served for each job:
// two done jobs of two cells that share one cell, spelled "186.crafty" in
// one and "186.crafty.ref" in the other. Replayed now, both jobs keep
// their IDs, serve byte-identical documents from the journal without
// executing anything, and share the common cell.
func TestPriorJournalReplays(t *testing.T) {
	const src = "testdata/prior-journal"
	dir := t.TempDir()
	for _, sub := range []string{"cells", "jobs"} {
		data, err := os.ReadFile(filepath.Join(src, "journal", sub, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "journal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cellsJr, cache, jobsJr, jobsRep := openServiceJournals(t, dir)
	defer cellsJr.Close()
	defer jobsJr.Close()
	s, err := New(Config{Cache: cache, Jobs: jobsJr, JobsReplay: jobsRep, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	ids := []string{"e2972b5789a9b9a9", "1a42bd63ed947686"}
	var shared []*CellSpec
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not replayed", id)
		}
		if got := j.spec.ID(); got != id {
			t.Errorf("job %s's journaled spec resolves to ID %s", id, got)
		}
		shared = append(shared, j.spec.Cells[0])
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var status bytes.Buffer
		_, err = status.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			file string
			got  []byte
		}{
			{id + ".status.json", status.Bytes()},
			{id + ".results.ndjson", fetchResults(t, ts, id)},
		} {
			want, err := os.ReadFile(filepath.Join(src, c.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.got, want) {
				t.Errorf("%s differs from the prior build's:\n%s\nvs\n%s", c.file, c.got, want)
			}
		}
	}
	if shared[0] != shared[1] {
		t.Error("replayed jobs naming one cell hold different *CellSpecs")
	}
	if st := cache.Stats(); st.Misses != 0 {
		t.Errorf("replay executed %d cell(s), want every result from the cells journal", st.Misses)
	}
}

// TestStatusConsistentWhileJobsFinish polls the status and progress
// documents while jobs finish. A job reported done must show every cell
// finished, partial_failure exactly when a cell failed, and a progress
// row with every cell counted; a job not done reports no partial failure.
// Each job's first cell runs longest, so a job finishes just as a reader
// that saw that cell running walks the rest.
func TestStatusConsistentWhileJobsFinish(t *testing.T) {
	cache := sim.NewRunCache()
	cache.SetExecutor(stubExec{perInst: 100 * time.Nanosecond, fail: true})
	const jobs, cellsPerJob, pollers = 60, 24, 3
	s, err := New(Config{Cache: cache, MaxJobs: jobs, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	h := s.Handler()
	get := func(path string, v any) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return json.Unmarshal(rec.Body.Bytes(), v)
	}

	var ids [jobs]string
	var published atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := map[int]bool{}
			for len(done) < jobs && !t.Failed() {
				for k := 0; k < int(published.Load()); k++ {
					if done[k] {
						continue
					}
					var st struct {
						State          string `json:"state"`
						PartialFailure bool   `json:"partial_failure"`
						FailedCells    int    `json:"failed_cells"`
						Cells          []struct {
							Status string `json:"status"`
						} `json:"cells"`
					}
					if err := get("/v1/jobs/"+ids[k], &st); err != nil {
						t.Error(err)
						return
					}
					if st.State != JobDone {
						if st.PartialFailure {
							t.Errorf("%s job %s reports a partial failure", st.State, ids[k])
						}
						continue
					}
					done[k] = true
					for i, c := range st.Cells {
						if c.Status == CellPending || c.Status == CellRunning {
							t.Errorf("done job %s reports cell %d %s", ids[k], i, c.Status)
						}
					}
					if st.PartialFailure != (st.FailedCells > 0) {
						t.Errorf("done job %s: partial_failure %v with %d failed cell(s)", ids[k], st.PartialFailure, st.FailedCells)
					}
				}
				var prog struct {
					Jobs []struct {
						ID    string `json:"id"`
						State string `json:"state"`
						Done  int    `json:"done"`
						Total int    `json:"total"`
					} `json:"jobs"`
				}
				if err := get("/v1/progress", &prog); err != nil {
					t.Error(err)
					return
				}
				for _, row := range prog.Jobs {
					if row.State == JobDone && row.Done != row.Total {
						t.Errorf("progress row of done job %s counts %d/%d cells", row.ID, row.Done, row.Total)
					}
				}
			}
		}()
	}
	for k := 0; k < jobs; k++ {
		cells := []string{fmt.Sprintf(`{"kind":"run","bench":"186.crafty","opt":{"MaxInsts":%d}}`, 20_000+k)}
		for i := 1; i < cellsPerJob; i++ {
			cells = append(cells, fmt.Sprintf(`{"kind":"run","bench":"186.crafty","opt":{"MaxInsts":%d}}`, 1000+cellsPerJob*k+i))
		}
		j := submit(t, s, `{"cells":[`+strings.Join(cells, ",")+`]}`)
		ids[k] = j.ID
		published.Store(int32(k + 1))
		// One job at a time, so the pollers catch each as it finishes.
		for state, _ := j.snapshot(); state != JobDone; state, _ = j.snapshot() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Wait()
}
