//go:build !race

package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"svf/internal/synth"
)

// TestSharedProfilesStayUnmodified runs a run cell and a traffic cell of
// every bundled workload, in process and through the shard pool, then
// checks that every shared profile still fingerprints as a fresh build.
// A write into a shared profile would silently re-key every later cell
// that names it. It builds every bundled program, too slow for the race
// detector.
func TestSharedProfilesStayUnmodified(t *testing.T) {
	fresh := append(synth.BenchmarkInputs(), synth.Families()...)
	var cells []string
	for _, p := range fresh {
		cells = append(cells,
			fmt.Sprintf(`{"kind":"run","bench":%q,"opt":{"Policy":1,"MaxInsts":2000}}`, p.ID()),
			fmt.Sprintf(`{"kind":"traffic","bench":%q,"policy":"svf","max_insts":2000}`, p.ID()))
	}
	body := `{"cells":[` + strings.Join(cells, ",") + `]}`
	_, inproc := newTestServer(t, nil)
	_, pooled, _ := newChaosServer(t, 2, nil, 1)
	for _, ts := range []*httptest.Server{inproc, pooled} {
		code, resp := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d: %v", code, resp)
		}
		id := resp["id"].(string)
		if st := waitJobDone(t, ts, id); st["partial_failure"] != false {
			t.Fatalf("job failed: %v", st)
		}
		fetchResults(t, ts, id)
	}
	for _, p := range fresh {
		if got := synth.Bundled(p.ID()).Fingerprint(); got != p.Fingerprint() {
			t.Errorf("shared profile %s fingerprints %s after the jobs, want %s", p.ID(), got, p.Fingerprint())
		}
	}
}
