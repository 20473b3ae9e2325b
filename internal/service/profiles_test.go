//go:build !race

package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"svf/internal/sim"
	"svf/internal/synth"
)

// TestSharedProfilesStayUnmodified runs a run cell and a traffic cell of
// every bundled workload, in process (with a registry attached, so every
// run carries a telemetry probe) and through the shard pool. It then
// checks that every shared profile still fingerprints as a fresh build,
// and that every cell the server interned still holds the options and the
// key it was resolved with: the cache receives an interned cell's own
// Options, and a write into a shared profile or Options would silently
// re-key or reconfigure every later cell that names it. It builds every
// bundled program, too slow for the race detector.
func TestSharedProfilesStayUnmodified(t *testing.T) {
	fresh := append(synth.BenchmarkInputs(), synth.Families()...)
	var cells []string
	for _, p := range fresh {
		cells = append(cells,
			fmt.Sprintf(`{"kind":"run","bench":%q,"opt":{"Policy":1,"MaxInsts":2000}}`, p.ID()),
			fmt.Sprintf(`{"kind":"traffic","bench":%q,"policy":"svf","max_insts":2000}`, p.ID()))
	}
	body := `{"cells":[` + strings.Join(cells, ",") + `]}`
	want, err := ParseJobSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	inproc, inprocTS := newTestServer(t, func(cfg *Config) { cfg.Cache.SetObserver(cfg.Obs) })
	pooled, pooledTS, _ := newChaosServer(t, 2, nil, 1)
	for _, srv := range []struct {
		s  *Server
		ts *httptest.Server
	}{{inproc, inprocTS}, {pooled, pooledTS}} {
		code, resp := postJob(t, srv.ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d: %v", code, resp)
		}
		id := resp["id"].(string)
		if st := waitJobDone(t, srv.ts, id); st["partial_failure"] != false {
			t.Fatalf("job failed: %v", st)
		}
		fetchResults(t, srv.ts, id)
		for _, w := range want.Cells {
			key := w.cell.Key()
			srv.s.mu.Lock()
			got := srv.s.cells[key]
			srv.s.mu.Unlock()
			if got == nil {
				t.Errorf("cell %s was not interned", key)
				continue
			}
			c := got.cell
			rekeyed := sim.TrafficCellKey(c.Prof, c.Policy, c.SizeBytes, c.MaxInsts, c.CtxPeriod)
			if c.Opt != nil {
				rekeyed = sim.RunCellKey(c.Prof, *c.Opt)
				if c.Opt != got.Opt || *c.Opt != *w.Opt {
					t.Errorf("cell %s holds options %+v after its runs, want the spec's %+v", key, *c.Opt, *w.Opt)
				}
			}
			if c.Key() != key || rekeyed != key {
				t.Errorf("cell %s keys as %q (rendered afresh %q) after its runs", key, c.Key(), rekeyed)
			}
		}
	}
	for _, p := range fresh {
		if got := synth.Bundled(p.ID()).Fingerprint(); got != p.Fingerprint() {
			t.Errorf("shared profile %s fingerprints %s after the jobs, want %s", p.ID(), got, p.Fingerprint())
		}
	}
}
