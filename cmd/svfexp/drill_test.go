package main

import (
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"svf/internal/journal"
)

// The drills below drive the real binary through a real kill -9, a
// degraded suite and the family workloads. Each compares against the same
// uninterrupted single-process Figure 5 run at 50k instructions.
var drillFig5 = []string{"-exp", "fig5", "-insts", "50000"}

var (
	cleanOnce sync.Once
	cleanOut  string
	cleanErr  string
	cleanCode int
)

// cleanFig5 returns the normalized output of the uninterrupted run.
func cleanFig5(t *testing.T) string {
	t.Helper()
	cleanOnce.Do(func() {
		cleanOut, cleanErr, cleanCode = runSvfexp(t, append(drillFig5, "-parallel", "2")...)
	})
	if cleanCode != 0 {
		t.Fatalf("clean run: exit %d, stderr:\n%s", cleanCode, cleanErr)
	}
	return normalize(cleanOut)
}

// killOnceJournaled starts svfexp and sends it SIGKILL as soon as the
// journal in dir has grown past its header, i.e. holds its first record.
// A run that finishes first is left alone: the resume must reproduce the
// clean output either way.
func killOnceJournaled(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command(svfexpBin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	header := int64(len("SVFJNL01")) // the journal file's magic
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-done:
			t.Log("campaign finished before the kill")
			return
		case <-deadline:
			cmd.Process.Kill()
			<-done
			t.Fatal("journal never received a record")
		case <-time.After(2 * time.Millisecond):
		}
		if fi, err := os.Stat(journal.Path(dir)); err == nil && fi.Size() > header {
			break
		}
	}
	cmd.Process.Signal(syscall.SIGKILL)
	<-done
}

// TestCrashRecoveryRealKill: a journaled campaign SIGKILLed mid-suite
// resumes from its journal to output identical to an uninterrupted run.
func TestCrashRecoveryRealKill(t *testing.T) {
	dir := t.TempDir()
	journaled := append(append([]string{}, drillFig5...), "-parallel", "2", "-journal", dir)
	killOnceJournaled(t, dir, journaled...)

	resumed, stderr, code := runSvfexp(t, append(journaled, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr:\n%s", code, stderr)
	}
	if got, want := normalize(resumed), cleanFig5(t); got != want {
		t.Errorf("resumed output differs from an uninterrupted run\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestShardedSweepRealKill: a 3-worker campaign loses one worker to an
// injected kill -9 and the coordinator to a real one; -resume on a fresh
// fleet completes the journal with output identical to the single-process
// run. -retries 3 keeps the killed cell inside its retry budget.
func TestShardedSweepRealKill(t *testing.T) {
	dir := t.TempDir()
	sharded := append(append([]string{}, drillFig5...), "-workers", "3", "-retries", "3", "-journal", dir)
	killOnceJournaled(t, dir, append(sharded, "-inject", "worker-kill=5")...)

	resumed, stderr, code := runSvfexp(t, append(sharded, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed sharded run: exit %d, stderr:\n%s", code, stderr)
	}
	if got, want := normalize(resumed), cleanFig5(t); got != want {
		t.Errorf("resumed sharded output differs from single-process\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestDegradedSuite: an injected panic in one benchmark degrades its cells
// to n/a, lists the faults on stderr and exits 0 under -on-fault=continue;
// -on-fault=fail exits 1.
func TestDegradedSuite(t *testing.T) {
	degraded := append(append([]string{}, drillFig5...), "-parallel", "2", "-inject", "bench=186.crafty,panic=2000")
	stdout, stderr, code := runSvfexp(t, append(degraded, "-on-fault=continue")...)
	if code != 0 {
		t.Fatalf("continue: exit %d, stderr:\n%s", code, stderr)
	}
	rows := 0
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.Contains(f[0], ".") {
			continue // not a benchmark row
		}
		rows++
		want := 0 // every crafty cell is a gap, no other cell is
		if strings.HasPrefix(f[0], "186.crafty") {
			want = len(f) - 1
		}
		if gaps := strings.Count(line, "n/a"); gaps != want {
			t.Errorf("row %q: %d n/a cells, want %d", line, gaps, want)
		}
	}
	if rows != 12 {
		t.Errorf("fig5 rendered %d benchmark rows, want 12:\n%s", rows, stdout)
	}
	for _, want := range []string{"simulation fault(s)", "panic in 186.crafty.ref", "at cycle"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("fault summary missing %q:\n%s", want, stderr)
		}
	}

	if _, stderr, code := runSvfexp(t, append(degraded, "-on-fault=fail")...); code != 1 {
		t.Errorf("fail: exit %d, want 1; stderr:\n%s", code, stderr)
	}
}

// TestFamilySuite: the stack-stress families run one speedup and one
// traffic suite end to end with no fault under -on-fault=fail.
func TestFamilySuite(t *testing.T) {
	_, stderr, code := runSvfexp(t, "-exp", "famperf,famtraffic", "-insts", "60000", "-traffic", "200000",
		"-parallel", "2", "-on-fault=fail")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}
