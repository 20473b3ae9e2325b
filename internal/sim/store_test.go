package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// poisonErr is a stand-in for the shard coordinator's quarantine verdict.
type poisonErr struct{ msg string }

func (e *poisonErr) Error() string        { return e.msg }
func (e *poisonErr) PermanentFault() bool { return true }

// TestCellStoreSemantics pins the cell store's contract in both modes,
// memory-only and journaled: attempts accumulate, Put supersedes fault
// state, budget latches unlatch when the budget rises, poison latches
// never do, and a journal replay seeds the completed cell as a restored
// cache entry.
func TestCellStoreSemantics(t *testing.T) {
	prof := synth.Gzip()
	opt := Canonical(Options{MaxInsts: 1000})
	k := RunCellKey(prof, opt)
	encode := func() (journal.Record, error) {
		data, err := json.Marshal(runPayload{Prof: prof.Fingerprint(), Opt: opt, Res: &Result{Bench: prof.ID()}})
		return journal.Record{Kind: recKindRun, Key: k, Data: data}, err
	}
	for _, tc := range []struct {
		name      string
		journaled bool
	}{
		{"memory-only", false},
		{"journaled", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var j *journal.Journal
			c := NewRunCache()
			if tc.journaled {
				var err error
				if j, _, err = journal.Open(dir, journal.Options{}); err != nil {
					t.Fatal(err)
				}
				c, _ = NewRunCacheWithJournal(j, nil)
			}
			s := c.store

			s.Fault(k, "b", 1, false, errors.New("transient"))
			if got := s.PriorAttempts(k); got != 1 {
				t.Errorf("PriorAttempts = %d, want 1", got)
			}
			if err := s.Gate(k, 2); err != nil {
				t.Errorf("Gate with budget left = %v", err)
			}

			// Budget latch: refused at the latching budget, admitted at a
			// bigger one.
			s.Fault(k, "b", 2, true, errors.New("final"))
			var le *LatchedError
			if err := s.Gate(k, 2); !errors.As(err, &le) || le.Poison {
				t.Errorf("Gate at budget = %v, want a non-poison latch", err)
			}
			if err := s.Gate(k, 3); err != nil {
				t.Errorf("Gate with raised budget = %v, want unlatched", err)
			}

			// Poison latch: holds at any budget.
			s.Fault("p", "b", 1, true, &poisonErr{msg: "killed workers"})
			if err := s.Gate("p", 1000); !errors.As(err, &le) || !le.Poison {
				t.Errorf("Gate on poison cell = %v, want a poison latch", err)
			}

			// Put supersedes every fault record.
			s.Put(k, encode)
			if got := s.PriorAttempts(k); got != 0 {
				t.Errorf("PriorAttempts after Put = %d, want 0", got)
			}
			if err := s.Gate(k, 1); err != nil {
				t.Errorf("Gate after Put = %v", err)
			}
			if !tc.journaled {
				return
			}

			// The journaled state survives a reopen: the completed cell is
			// restored, the poison latch still holds.
			if st := j.Stats(); st.Appends != 4 {
				t.Errorf("journal appends = %d, want 3 faults + 1 put", st.Appends)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, rep, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			c2, rs := NewRunCacheWithJournal(j2, rep)
			if rs.Runs != 1 || rs.Latched != 1 || rs.SkippedDecode != 0 {
				t.Errorf("restore stats = %+v, want 1 run + 1 latched", rs)
			}
			c2.runs.mu.Lock()
			f := c2.runs.m[k]
			c2.runs.mu.Unlock()
			if f == nil || !f.restored {
				t.Error("replayed cell not seeded as a restored cache entry")
			}
			if err := c2.store.Gate("p", 1000); !errors.As(err, &le) || !le.Poison {
				t.Errorf("Gate on replayed poison cell = %v, want a poison latch", err)
			}
		})
	}
}

// TestPermanentFaultLatchesImmediately: an error carrying the
// PermanentFaulter marker latches its cell on the first failure even with
// retry budget to spare — the cache must not burn budget on a quarantined
// cell, and the latch must survive a raised budget.
func TestPermanentFaultLatchesImmediately(t *testing.T) {
	c := NewRunCache()
	c.SetRetries(10)
	prof := synth.Gzip()
	calls := countingRunFn(c, func(int) (*Result, error) {
		return nil, &poisonErr{msg: "poison"}
	})
	_, err := c.Run(context.Background(), prof, Options{MaxInsts: 1000})
	var pe *poisonErr
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the poison error", err)
	}
	if *calls != 1 {
		t.Fatalf("executed %d times, want 1 (no retry of a permanent fault)", *calls)
	}

	// The latch is served from the store now; nothing re-executes.
	_, err = c.Run(context.Background(), prof, Options{MaxInsts: 1000})
	var le *LatchedError
	if !errors.As(err, &le) || !le.Poison {
		t.Fatalf("second request err = %v, want the poison latch", err)
	}
	if *calls != 1 {
		t.Errorf("latched cell re-executed (%d calls)", *calls)
	}
}

// TestIsPermanentFault covers marker detection through wrap chains.
func TestIsPermanentFault(t *testing.T) {
	if IsPermanentFault(nil) || IsPermanentFault(errors.New("plain")) {
		t.Error("marker detected where none exists")
	}
	if !IsPermanentFault(&poisonErr{}) {
		t.Error("direct marker missed")
	}
	wrapped := &Fault{Bench: "b", Err: &poisonErr{}}
	if !IsPermanentFault(wrapped) {
		t.Error("marker missed through a *Fault wrapper")
	}
}

// recordingExec is a stub Executor counting calls.
type recordingExec struct {
	runs, traffics int
	res            *Result
}

func (e *recordingExec) ExecRun(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error) {
	e.runs++
	return e.res, nil
}

func (e *recordingExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	e.traffics++
	return 1, 2, 3, nil
}

// TestExecutorSeam: SetExecutor reroutes misses through the executor while
// hits are still served from memory, and traffic cells go through too.
func TestExecutorSeam(t *testing.T) {
	prof := synth.Gzip()
	ex := &recordingExec{res: &Result{Bench: prof.ID()}}
	c := NewRunCache()
	c.SetExecutor(ex)

	for i := 0; i < 2; i++ {
		res, err := c.Run(context.Background(), prof, Options{MaxInsts: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bench != prof.ID() {
			t.Fatalf("result = %+v", res)
		}
	}
	if ex.runs != 1 {
		t.Errorf("executor ran %d times, want 1 (second request is a hit)", ex.runs)
	}

	in, out, cb, err := c.Traffic(context.Background(), prof, pipeline.PolicySVF, 8<<10, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in != 1 || out != 2 || cb != 3 || ex.traffics != 1 {
		t.Errorf("traffic = (%d,%d,%d) via %d executor calls", in, out, cb, ex.traffics)
	}
}
