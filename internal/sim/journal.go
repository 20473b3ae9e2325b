package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/telemetry"
)

// This file is the journal side of the RunCache's cell store (store.go): it
// encodes finished cells as journal records, replays them on open so a
// resumed campaign serves warm results from disk, and restores fault
// attempt counts so the bounded-retry supervision survives process death.
// See DESIGN.md §5d.

// Journal record kinds.
const (
	recKindRun     = "run"     // a completed timing run (runPayload)
	recKindTraffic = "traffic" // a completed functional traffic run (trafficPayload)
	recKindFault   = "fault"   // a failed execution attempt (faultPayload)
)

// runPayload is the JSON body of a "run" record. Opt is the canonical
// options (the cache-key half of the cell identity); Res carries every
// counter of the finished run, so a restored cell is bit-identical to the
// run that produced it.
type runPayload struct {
	Prof string
	Opt  Options
	Res  *Result
}

// trafficPayload is the JSON body of a "traffic" record.
type trafficPayload struct {
	Prof      string
	Policy    pipeline.StackPolicy
	SizeBytes int
	MaxInsts  int
	CtxPeriod uint64
	In, Out   uint64
	CtxBytes  uint64
}

// faultPayload is the JSON body of a "fault" record; attempts and the
// permanent latch travel in the record envelope. Poison marks a quarantine
// latch so a resume re-latches it unconditionally (budget-independent).
type faultPayload struct {
	Bench  string
	Msg    string
	Poison bool `json:",omitempty"`
}

// LatchedError reports a cell whose retry budget was exhausted in this or a
// previous session: the journal has latched it as permanently failed, and
// resumes serve this error instead of re-executing the cell. Delete the
// journal directory (or raise -retries past Attempts) to try again.
type LatchedError struct {
	// Bench is the workload's ID.
	Bench string
	// Key is the cell's journal identity.
	Key string
	// Attempts is the cumulative number of failed executions.
	Attempts uint32
	// Msg is the final attempt's error text.
	Msg string
	// Poison marks a quarantine latch (the cell killed K distinct workers;
	// see PermanentFaulter): it holds regardless of the retry budget, since
	// the quarantine verdict is about worker deaths, not attempts.
	Poison bool
}

// Error implements error.
func (e *LatchedError) Error() string {
	if e.Poison {
		return fmt.Sprintf("sim: %s: quarantined as a poison cell after %d attempt(s): %s",
			e.Bench, e.Attempts, e.Msg)
	}
	return fmt.Sprintf("sim: %s: latched as permanently failed after %d attempt(s) (journal): %s",
		e.Bench, e.Attempts, e.Msg)
}

// RestoreStats summarises what a journal replay put back into a RunCache.
type RestoreStats struct {
	// Runs and Traffic count completed cells restored and served from
	// disk without re-execution.
	Runs, Traffic int
	// Faulted counts cells with a pending (non-permanent) fault record;
	// they re-execute on first use, with their prior attempts counted
	// against the retry budget.
	Faulted int
	// Latched counts cells replayed as permanently failed.
	Latched int
	// SkippedDecode counts records whose payload no longer decodes
	// (version drift); the cell simply re-executes.
	SkippedDecode int
	// Journal echoes the journal-level replay summary (torn tail,
	// corrupt records, compaction).
	Journal journal.ReplayStats
}

// Restored returns the number of completed cells served from disk.
func (s RestoreStats) Restored() int { return s.Runs + s.Traffic }

// String renders the one-line `svfexp -resume` summary.
func (s RestoreStats) String() string {
	out := fmt.Sprintf("restored %d completed cell(s) (%d runs, %d traffic)", s.Restored(), s.Runs, s.Traffic)
	if s.Faulted > 0 {
		out += fmt.Sprintf(", %d faulted pending retry", s.Faulted)
	}
	if s.Latched > 0 {
		out += fmt.Sprintf(", %d latched permanent", s.Latched)
	}
	if s.SkippedDecode > 0 {
		out += fmt.Sprintf(", %d undecodable skipped", s.SkippedDecode)
	}
	if js := s.Journal; js.SkippedCorrupt > 0 || js.TruncatedBytes > 0 || js.Compacted {
		out += " [" + js.String() + "]"
	}
	return out
}

// NewRunCacheWithJournal returns a cache whose completed cells are
// persisted to j and that starts warm from rep: completed run/traffic
// records are served from disk without re-executing, fault records seed the
// bounded-retry supervision (pending attempts count against the budget;
// permanently latched cells fail fast), and every cell finished by this
// process is appended durably. Fault-injected runs bypass the journal
// exactly as they bypass the cache. Characterisation passes are not
// journaled: they are cheap, deterministic functional passes that simply
// recompute on resume.
//
// The journal only adds durability: retry attempts, backoff, budget
// latches and poison quarantine behave exactly as in a NewRunCache, whose
// cell store holds them for the process lifetime.
func NewRunCacheWithJournal(j *journal.Journal, rep *journal.Replay) (*RunCache, RestoreStats) {
	c := NewRunCache()
	s := c.store
	s.j = j
	var rs RestoreStats
	if rep != nil {
		rs.Journal = rep.Stats
		for _, rec := range rep.Records {
			switch rec.Kind {
			case recKindRun:
				res, ok := decodeRunRecord(rec)
				if !ok {
					rs.SkippedDecode++
					continue
				}
				c.runs.seed(rec.Key, res)
				rs.Runs++
			case recKindTraffic:
				v, ok := decodeTrafficRecord(rec)
				if !ok {
					rs.SkippedDecode++
					continue
				}
				c.traffic.seed(rec.Key, v)
				rs.Traffic++
			case recKindFault:
				var p faultPayload
				if json.Unmarshal(rec.Data, &p) != nil {
					rs.SkippedDecode++
					continue
				}
				if rec.Permanent {
					s.latched[rec.Key] = &LatchedError{
						Bench: p.Bench, Key: rec.Key, Attempts: rec.Attempts, Msg: p.Msg, Poison: p.Poison,
					}
					rs.Latched++
				} else {
					s.attempts[rec.Key] = rec.Attempts
					rs.Faulted++
				}
			default:
				rs.SkippedDecode++
			}
		}
	}
	c.restore = rs
	return c, rs
}

// decodeRunRecord decodes a "run" journal record's result. The decoded
// options are re-canonicalised so a journal written before a defaults
// change still lands on today's key for the same machine; a record whose
// key no longer round-trips is rejected (costs a re-execution, never a
// wrong result).
func decodeRunRecord(rec journal.Record) (*Result, bool) {
	var p runPayload
	if json.Unmarshal(rec.Data, &p) != nil || p.Res == nil || runCellKey(p.Prof, Canonical(p.Opt)) != rec.Key {
		return nil, false
	}
	return p.Res, true
}

// decodeTrafficRecord decodes a "traffic" journal record's result,
// rejecting records whose key no longer round-trips.
func decodeTrafficRecord(rec journal.Record) (trafficVal, bool) {
	var p trafficPayload
	if json.Unmarshal(rec.Data, &p) != nil || trafficCellKey(p.Prof, p.Policy, p.SizeBytes, p.MaxInsts, p.CtxPeriod) != rec.Key {
		return trafficVal{}, false
	}
	return trafficVal{p.In, p.Out, p.CtxBytes}, true
}

// RestoredFaults returns the permanently latched cells replayed from the
// journal, in deterministic (key) order, as errors ready for a fault log.
func (c *RunCache) RestoredFaults() []error {
	s := c.store
	if s.j == nil {
		return nil
	}
	s.mu.Lock()
	latched := make([]*LatchedError, 0, len(s.latched))
	for _, e := range s.latched {
		latched = append(latched, e)
	}
	s.mu.Unlock()
	sort.Slice(latched, func(i, j int) bool { return latched[i].Key < latched[j].Key })
	out := make([]error, len(latched))
	for i, e := range latched {
		out[i] = e
	}
	return out
}

// SetRetries sets how many times a contained fault is re-executed before
// the cell is latched as permanently failed (the svfexp -retries flag).
// The total attempt budget is retries+1; negative values clamp to zero
// (no retries). Default: 1, set by NewRunCache.
func (c *RunCache) SetRetries(n int) {
	c.retries = max(n, 0)
}

// attemptBudget is the total number of executions a cell may consume.
func (c *RunCache) attemptBudget() uint32 { return uint32(c.retries) + 1 }

// SetBackoff overrides the retry backoff policy: base doubles per attempt
// up to cap, and seed drives the per-cell jitter. The sleeper, when
// non-nil, replaces the real clock (tests use it to record deterministic
// delays).
func (c *RunCache) SetBackoff(base, cap time.Duration, seed int64, sleeper func(context.Context, time.Duration) error) {
	c.backoffBase, c.backoffCap, c.backoffSeed = base, cap, seed
	if sleeper != nil {
		c.sleep = sleeper
	}
}

// Default retry backoff: 100ms doubling to a 5s cap. Small next to any
// real simulation, large enough to ride out transient resource pressure.
const (
	defaultBackoffBase = 100 * time.Millisecond
	defaultBackoffCap  = 5 * time.Second
)

// backoffFor computes the delay before retry `attempt` (1-based: the delay
// taken after the attempt'th failure) of the given cell: capped exponential
// growth times a deterministic jitter in [1, 2) seeded by (seed, key,
// attempt). Determinism keeps chaos tests exact; per-key jitter keeps a
// resumed fleet of faulted cells from retrying in lockstep.
func (c *RunCache) backoffFor(key string, attempt uint32) time.Duration {
	base, cap := c.backoffBase, c.backoffCap
	if base <= 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffCap
	}
	d := base
	for i := uint32(1); i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", c.backoffSeed, key, attempt)
	jitter := float64(h.Sum64()%1000) / 1000 // [0, 1)
	return d + time.Duration(jitter*float64(d))
}

// sleepBackoff waits the cell's backoff delay before a retry, honouring
// cancellation.
func (c *RunCache) sleepBackoff(ctx context.Context, key string, attempt uint32) error {
	d := c.backoffFor(key, attempt)
	c.obs.Events.Emit(telemetry.Event{Type: "backoff", Key: key, Attempt: attempt, DurMS: float64(d) / float64(time.Millisecond)})
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
