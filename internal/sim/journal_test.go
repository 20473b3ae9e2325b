package sim

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"svf/internal/faultinject"
	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// openJournaledCache opens (or reopens) a journaled cache over dir.
func openJournaledCache(t *testing.T, dir string, jopts journal.Options) (*RunCache, RestoreStats, *journal.Journal) {
	t.Helper()
	j, rep, err := journal.Open(dir, jopts)
	if err != nil {
		t.Fatal(err)
	}
	c, rs := NewRunCacheWithJournal(j, rep)
	return c, rs, j
}

// noSleep is a backoff sleeper that returns immediately (tests must not
// wait out real retry delays).
func noSleep(context.Context, time.Duration) error { return nil }

// Completed cells must survive process death: a second cache opened over the
// same journal serves them from disk, bit-identical, without re-executing.
func TestJournaledCachePersistsAndRestoresRuns(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Gzip()
	opt := Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 5_000}
	ctx := context.Background()

	c1, rs, j1 := openJournaledCache(t, dir, journal.Options{})
	if rs.Restored() != 0 {
		t.Fatalf("fresh journal restored %d cells", rs.Restored())
	}
	first, err := c1.Do(ctx, RunCell(prof, &opt))
	if err != nil {
		t.Fatal(err)
	}
	traffic1, err := c1.Do(ctx, TrafficCell(prof, pipeline.PolicySVF, 4096, 5_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := j1.Stats(); st.Appends != 2 {
		t.Fatalf("journal appends = %d, want one run + one traffic record", st.Appends)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, rs2, j2 := openJournaledCache(t, dir, journal.Options{})
	defer j2.Close()
	if rs2.Runs != 1 || rs2.Traffic != 1 || rs2.Faulted != 0 || rs2.Latched != 0 || rs2.SkippedDecode != 0 {
		t.Fatalf("restore stats = %+v, want 1 run + 1 traffic", rs2)
	}
	if c2.restore != rs2 {
		t.Errorf("cache restore stats = %+v, want %+v", c2.restore, rs2)
	}
	calls := countingRunFn(c2, func(int) (*Result, error) {
		t.Error("restored cell re-executed")
		return nil, errors.New("unreachable")
	})
	second, err := c2.Do(ctx, RunCell(prof, &opt))
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 0 {
		t.Fatalf("restored run executed %d times", *calls)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("restored result is not bit-identical to the original run")
	}
	traffic2, err := c2.Do(ctx, TrafficCell(prof, pipeline.PolicySVF, 4096, 5_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if traffic1 != traffic2 {
		t.Errorf("restored traffic = %+v, want %+v", traffic2, traffic1)
	}
	if st := c2.Stats(); st.Misses != 0 || st.Hits != 2 {
		t.Errorf("stats = %+v, want both restored requests to hit", st)
	}
	if st := j2.Stats(); st.Appends != 0 {
		t.Errorf("serving restored cells appended %d records", st.Appends)
	}
	if rs2.String() == "" {
		t.Error("restore summary is empty")
	}
}

// A cell that exhausts its retry budget is latched permanently: later
// requests — in this process and after a resume — are refused with a
// LatchedError instead of re-executing.
func TestJournaledCacheLatchesExhaustedCell(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Gzip()
	opt := Options{MaxInsts: 1000}
	ctx := context.Background()

	c1, _, j1 := openJournaledCache(t, dir, journal.Options{})
	c1.SetRetries(2) // budget: 3 executions
	c1.SetBackoff(time.Millisecond, time.Second, 42, noSleep)
	calls := countingRunFn(c1, func(int) (*Result, error) {
		return nil, &Fault{Bench: prof.ID(), Panic: "deterministic"}
	})
	_, err := c1.Do(ctx, RunCell(prof, &opt))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want the fault", err)
	}
	if *calls != 3 {
		t.Fatalf("executed %d times, want the full budget of 3", *calls)
	}
	if st := c1.Stats(); st.Errors != 3 || st.Retries != 2 || st.Latched != 0 {
		t.Errorf("stats = %+v, want errors=3 retries=2", st)
	}
	// The latch refuses the next request without executing.
	_, err = c1.Do(ctx, RunCell(prof, &opt))
	var le *LatchedError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LatchedError", err)
	}
	if le.Attempts != 3 || le.Bench != prof.ID() {
		t.Errorf("latched error = %+v", le)
	}
	if *calls != 3 {
		t.Errorf("a latched cell executed (calls=%d)", *calls)
	}
	if st := c1.Stats(); st.Latched != 1 {
		t.Errorf("stats = %+v, want latched=1", st)
	}
	j1.Close()

	// The latch survives process death.
	c2, rs, j2 := openJournaledCache(t, dir, journal.Options{})
	if rs.Latched != 1 || rs.Faulted != 0 || rs.Restored() != 0 {
		t.Fatalf("restore stats = %+v, want 1 latched", rs)
	}
	faults := c2.RestoredFaults()
	if len(faults) != 1 || !errors.As(faults[0], &le) || le.Attempts != 3 {
		t.Fatalf("restored faults = %v", faults)
	}
	c2.SetRetries(2)
	calls2 := countingRunFn(c2, func(int) (*Result, error) {
		t.Error("latched cell re-executed under the same budget")
		return nil, errors.New("unreachable")
	})
	if _, err := c2.Do(ctx, RunCell(prof, &opt)); !errors.As(err, &le) {
		t.Fatalf("resumed err = %v, want LatchedError", err)
	}
	_ = calls2
	j2.Close()

	// Raising -retries past the recorded attempts un-latches the cell: the
	// latch stores attempts, not a verdict.
	c3, _, j3 := openJournaledCache(t, dir, journal.Options{})
	defer j3.Close()
	c3.SetRetries(5)
	c3.SetBackoff(time.Millisecond, time.Second, 42, noSleep)
	want := &Result{Bench: prof.ID()}
	calls3 := countingRunFn(c3, func(int) (*Result, error) { return want, nil })
	out, err := c3.Do(ctx, RunCell(prof, &opt))
	if err != nil || out.Run.Bench != prof.ID() {
		t.Fatalf("un-latched run = %+v, %v", out, err)
	}
	if *calls3 != 1 {
		t.Errorf("un-latched cell executed %d times", *calls3)
	}
	j3.Close()

	// The success superseded the fault record: a fourth session restores a
	// completed cell, no latch.
	c4, rs4, j4 := openJournaledCache(t, dir, journal.Options{})
	defer j4.Close()
	if rs4.Latched != 0 || rs4.Runs != 1 {
		t.Errorf("restore stats after recovery = %+v, want the run record only", rs4)
	}
	if len(c4.RestoredFaults()) != 0 {
		t.Error("recovered cell still reported as a restored fault")
	}
}

// A pending (non-permanent) fault record replayed from the journal counts
// its prior attempts against the budget: the cell re-executes, but fewer
// times.
func TestJournaledCachePriorAttemptsCountAgainstBudget(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Gzip()
	opt := Options{MaxInsts: 1000}
	key := RunCellKey(prof, opt)

	// Simulate a previous session that failed once and died before retrying.
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(faultPayload{Bench: prof.ID(), Msg: "killed mid-retry"})
	if err := j.Append(journal.Record{Kind: "fault", Key: key, Attempts: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	c, rs, j2 := openJournaledCache(t, dir, journal.Options{})
	defer j2.Close()
	if rs.Faulted != 1 {
		t.Fatalf("restore stats = %+v, want 1 faulted pending retry", rs)
	}
	c.SetRetries(1) // budget 2, one already spent
	c.SetBackoff(time.Millisecond, time.Second, 7, noSleep)
	calls := countingRunFn(c, func(int) (*Result, error) {
		return nil, &Fault{Bench: prof.ID(), Panic: "still broken"}
	})
	_, err = c.Do(context.Background(), RunCell(prof, &opt))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want the fault", err)
	}
	if *calls != 1 {
		t.Fatalf("executed %d times, want exactly the one remaining attempt", *calls)
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Errorf("stats = %+v, want the resumed execution counted as a retry", st)
	}
	// That failure exhausted the budget: the cell is latched now.
	var le *LatchedError
	if _, err := c.Do(context.Background(), RunCell(prof, &opt)); !errors.As(err, &le) {
		t.Fatalf("err = %v, want LatchedError", err)
	}
	if le.Attempts != 2 {
		t.Errorf("latched after %d attempts, want 2 (1 replayed + 1 fresh)", le.Attempts)
	}
}

// A pending fault record always owes the cell one more execution, even when
// its recorded attempts exceed a shrunken budget.
func TestJournaledCacheShrunkenBudgetStillRetriesOnce(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Gzip()
	opt := Options{MaxInsts: 1000}
	key := RunCellKey(prof, opt)

	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(faultPayload{Bench: prof.ID(), Msg: "old failures"})
	if err := j.Append(journal.Record{Kind: "fault", Key: key, Attempts: 5, Data: data}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	c, _, j2 := openJournaledCache(t, dir, journal.Options{})
	defer j2.Close()
	c.SetRetries(0) // budget 1, already "overspent" by the record
	c.SetBackoff(time.Millisecond, time.Second, 7, noSleep)
	want := &Result{Bench: prof.ID()}
	calls := countingRunFn(c, func(int) (*Result, error) { return want, nil })
	out, err := c.Do(context.Background(), RunCell(prof, &opt))
	if err != nil || out.Run.Bench != prof.ID() {
		t.Fatalf("run = %+v, %v", out, err)
	}
	if *calls != 1 {
		t.Errorf("executed %d times, want the one owed attempt", *calls)
	}
}

// The retry backoff is deterministic in (seed, key, attempt), grows
// exponentially and respects the cap — chaos tests must replay exactly.
func TestJournaledBackoffDeterministic(t *testing.T) {
	mk := func(seed int64) *RunCache {
		c := NewRunCache()
		c.SetBackoff(100*time.Millisecond, 5*time.Second, seed, nil)
		return c
	}
	a, b, other := mk(1), mk(1), mk(2)
	var prevBase time.Duration
	differs := false
	for attempt := uint32(1); attempt <= 10; attempt++ {
		da := a.backoffFor("cell", attempt)
		if db := b.backoffFor("cell", attempt); da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, da, db)
		}
		if do := other.backoffFor("cell", attempt); do != da {
			differs = true
		}
		// Jitter is in [1, 2): the delay is within [base, 2*base) of the
		// capped exponential base.
		base := 100 * time.Millisecond << (attempt - 1)
		if base > 5*time.Second {
			base = 5 * time.Second
		}
		if da < base || da >= 2*base {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, da, base, 2*base)
		}
		if base > prevBase && da < prevBase {
			t.Errorf("attempt %d: delay %v shrank below the previous base %v", attempt, da, prevBase)
		}
		prevBase = base
	}
	if !differs {
		t.Error("different seeds produced identical delay schedules")
	}
}

// A cache without a journal retries after the same seeded backoff as a
// journaled one: the sleeper is asked for the cell's first delay, once.
func TestRunCacheRetriesAfterBackoff(t *testing.T) {
	c := NewRunCache()
	var slept []time.Duration
	c.SetBackoff(time.Hour, time.Hour, 1, func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	})
	prof := synth.Gzip()
	opt := Options{MaxInsts: 1000}
	calls := countingRunFn(c, func(call int) (*Result, error) {
		if call == 1 {
			return nil, &Fault{Bench: prof.ID(), Panic: "transient"}
		}
		return &Result{Bench: prof.ID()}, nil
	})
	if _, err := c.Do(context.Background(), RunCell(prof, &opt)); err != nil {
		t.Fatal(err)
	}
	want := c.backoffFor(RunCellKey(prof, opt), 1)
	if *calls != 2 || len(slept) != 1 || slept[0] != want {
		t.Errorf("calls=%d slept=%v, want one retry after a %v backoff", *calls, slept, want)
	}
}

// Fault-injected runs bypass the cache, and therefore the journal: an
// injected result must never be restorable as a clean one.
func TestJournaledCacheInjectedRunsBypassJournal(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Gzip()
	c, _, j := openJournaledCache(t, dir, journal.Options{})
	defer j.Close()
	calls := countingRunFn(c, func(int) (*Result, error) {
		return &Result{Bench: prof.ID()}, nil
	})
	plan, err := faultinject.Parse("bench=" + prof.ID() + ",eof=100,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(context.Background(), RunCell(prof, &Options{MaxInsts: 1000, FaultPlan: plan})); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("injected run executed %d times", *calls)
	}
	if st := j.Stats(); st.Appends != 0 {
		t.Errorf("injected run appended %d journal records", st.Appends)
	}
}

// Satellite: kill-9-style crash rehearsal. A journal that dies mid-append
// (deterministic kill-mid-write injection) must reopen with every cell
// completed before the kill restored bit-identically.
func TestJournaledCacheCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Gzip()
	optA := Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 5_000}
	optB := Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: 6_000}
	ctx := context.Background()

	plan := &faultinject.Plan{Seed: 11, JournalKillWrite: 2}
	c1, _, j1 := openJournaledCache(t, dir, journal.Options{Inject: plan})
	first, err := c1.Do(ctx, RunCell(prof, &optA))
	if err != nil {
		t.Fatal(err)
	}
	// The second cell's append dies mid-write; the in-memory result is
	// still served (durability lost, correctness kept).
	second, err := c1.Do(ctx, RunCell(prof, &optB))
	if err != nil {
		t.Fatal(err)
	}
	if second.Run == nil || second.Run.Pipe.Cycles == 0 {
		t.Fatalf("run during journal crash returned %+v", second)
	}
	j1.Close()

	c2, rs, j2 := openJournaledCache(t, dir, journal.Options{})
	defer j2.Close()
	if rs.Runs != 1 {
		t.Fatalf("restore stats = %+v, want exactly the pre-crash cell", rs)
	}
	if rs.Journal.TruncatedBytes == 0 {
		t.Error("expected a torn tail from the killed append")
	}
	calls := countingRunFn(c2, func(int) (*Result, error) {
		t.Error("pre-crash cell re-executed")
		return nil, errors.New("unreachable")
	})
	restored, err := c2.Do(ctx, RunCell(prof, &optA))
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 0 {
		t.Fatalf("restored cell executed %d times", *calls)
	}
	if !reflect.DeepEqual(first, restored) {
		t.Error("restored result is not bit-identical to the pre-crash run")
	}
}

// An undecodable record (version drift) is skipped and its cell simply
// re-executes; it must not poison the replay.
func TestJournaledCacheSkipsUndecodableRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journal.Record{Kind: "run", Key: "run|future|{}", Data: []byte("not json")})
	j.Append(journal.Record{Kind: "hologram", Key: "future-kind", Data: []byte("{}")})
	j.Close()

	c, rs, j2 := openJournaledCache(t, dir, journal.Options{})
	defer j2.Close()
	if rs.SkippedDecode != 2 || rs.Restored() != 0 {
		t.Fatalf("restore stats = %+v, want 2 skipped, 0 restored", rs)
	}
	if c == nil {
		t.Fatal("cache not built")
	}
}
