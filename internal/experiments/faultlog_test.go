package experiments

import (
	"errors"
	"strings"
	"testing"
)

// faultsOf snapshots a log's failures: fresh faults in arrival order, then
// replayed ones.
func faultsOf(l *FaultLog) []error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(append([]error(nil), l.faults...), l.replayed...)
}

// An empty log renders no summary — a clean suite must print nothing.
func TestFaultLogEmptySummary(t *testing.T) {
	var nilLog *FaultLog
	if nilLog.Summary() != "" || faultsOf(nilLog) != nil {
		t.Error("nil log must be inert")
	}
	l := NewFaultLog()
	l.Add(nil)
	l.AddReplayed(nil)
	if l.Summary() != "" || len(faultsOf(l)) != 0 {
		t.Errorf("empty log: Summary=%q, %d faults", l.Summary(), len(faultsOf(l)))
	}
}

// Replayed journal faults are counted and labelled separately from fresh
// ones, so a resumed campaign's report distinguishes old failures from new.
func TestFaultLogLabelsReplayedFaults(t *testing.T) {
	l := NewFaultLog()
	l.Add(errors.New("fresh breakage"))
	l.AddReplayed(errors.New("latched last week"))
	l.AddReplayed(errors.New("latched yesterday"))
	if len(faultsOf(l)) != 3 {
		t.Fatalf("%d faults, want 3", len(faultsOf(l)))
	}
	s := l.Summary()
	if !strings.Contains(s, "3 simulation fault(s) (2 replayed from journal):") {
		t.Errorf("headline wrong:\n%s", s)
	}
	if !strings.Contains(s, "fresh breakage") || strings.Contains(strings.SplitN(s, "\n", 3)[1], "(replayed)") {
		t.Errorf("fresh fault mislabelled:\n%s", s)
	}
	if strings.Count(s, "(replayed)") != 2 {
		t.Errorf("replayed labels = %d, want 2:\n%s", strings.Count(s, "(replayed)"), s)
	}
}

// A fresh-only log keeps the historical headline.
func TestFaultLogFreshOnlyHeadline(t *testing.T) {
	l := NewFaultLog()
	l.Add(errors.New("boom"))
	s := l.Summary()
	if !strings.HasPrefix(s, "1 simulation fault(s):") {
		t.Errorf("headline = %q", s)
	}
	if strings.Contains(s, "replayed") {
		t.Errorf("fresh-only summary mentions the journal:\n%s", s)
	}
}
