package experiments

import (
	"fmt"
	"strings"
	"sync"
)

// FaultLog collects the cell failures a supervised suite survived, so the
// caller (svfexp, tests) can report what degraded even when every
// experiment "succeeded" under FaultContinue. It is safe for concurrent
// use; suite cancellation is never recorded (see Config.record).
//
// A resumed campaign seeds the log with the fault records replayed from
// its journal (AddReplayed) — typically cells latched as permanently
// failed in an earlier session — so the final summary accounts for every
// degraded cell, not just the ones that broke in this process.
type FaultLog struct {
	mu       sync.Mutex
	faults   []error
	replayed []error
}

// NewFaultLog returns an empty log.
func NewFaultLog() *FaultLog { return &FaultLog{} }

// Add records one failure from this session. Nil errors are ignored.
func (l *FaultLog) Add(err error) {
	if l == nil || err == nil {
		return
	}
	l.mu.Lock()
	l.faults = append(l.faults, err)
	l.mu.Unlock()
}

// AddReplayed records a failure restored from a campaign journal; the
// summary labels it so an old, already-reported fault is not mistaken for
// a fresh one.
func (l *FaultLog) AddReplayed(err error) {
	if l == nil || err == nil {
		return
	}
	l.mu.Lock()
	l.replayed = append(l.replayed, err)
	l.mu.Unlock()
}

// Summary renders the multi-line fault report svfexp prints after a
// degraded suite: a headline count, then one line per fault, with faults
// replayed from a journal labelled as such. Empty when nothing failed.
func (l *FaultLog) Summary() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	fresh := make([]error, len(l.faults))
	copy(fresh, l.faults)
	replayed := make([]error, len(l.replayed))
	copy(replayed, l.replayed)
	l.mu.Unlock()
	if len(fresh)+len(replayed) == 0 {
		return ""
	}
	var b strings.Builder
	if len(replayed) > 0 {
		fmt.Fprintf(&b, "%d simulation fault(s) (%d replayed from journal):\n", len(fresh)+len(replayed), len(replayed))
	} else {
		fmt.Fprintf(&b, "%d simulation fault(s):\n", len(fresh))
	}
	n := 0
	for _, err := range fresh {
		n++
		fmt.Fprintf(&b, "  [%d] %v\n", n, err)
	}
	for _, err := range replayed {
		n++
		fmt.Fprintf(&b, "  [%d] (replayed) %v\n", n, err)
	}
	return b.String()
}
