package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A sweep with the observability listener up serves Prometheus /metrics
// and JSON /progress on its ephemeral port while it lingers after the
// suite, SIGINT ends the linger with exit 0, and the NDJSON event log
// carries the campaign and run lifecycle.
func TestObsEndpointsAndEventLog(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.ndjson")
	cmd := exec.Command(svfexpBin, "-exp", "fig5", "-insts", "20000", "-parallel", "2",
		"-events", events, "-obs-addr", "127.0.0.1:0", "-obs-linger", "60s")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // a no-op once the process has exited

	var addr string
	serving := false
	for sc := bufio.NewScanner(stdout); !serving && sc.Scan(); {
		if a, ok := strings.CutPrefix(sc.Text(), "obs: listening on "); ok {
			addr = a
		}
		serving = strings.HasPrefix(sc.Text(), "obs: serving")
	}
	if !serving || addr == "" {
		cmd.Wait()
		t.Fatalf("suite never reached the linger (listener %q); stderr:\n%s", addr, stderr.String())
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	if !regexp.MustCompile(`(?m)^svf_sim_runs_total`).Match(get("/metrics")) {
		t.Error("/metrics has no svf_sim_runs_total line")
	}
	var prog struct{ Done, Total int64 }
	if err := json.Unmarshal(get("/progress"), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Total == 0 || prog.Done != prog.Total {
		t.Errorf("/progress done/total = %d/%d, want done == total > 0", prog.Done, prog.Total)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGINT during the linger: %v, want exit 0; stderr:\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var ev struct{ Type string }
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		types[ev.Type] = true
	}
	for _, want := range []string{"campaign_start", "run_start", "run_finish", "campaign_finish"} {
		if !types[want] {
			t.Errorf("event log has no %s event (types: %v)", want, types)
		}
	}
}
