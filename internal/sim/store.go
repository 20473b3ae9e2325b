package sim

import (
	"context"
	"encoding/json"
	"sync"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// cellStore is a RunCache's cell state: per-cell failed attempts and
// budget and poison latches, keyed by cell key. It carries the bounded-retry
// supervision across requests, so a faulted cell resumes its attempt count
// and a latched cell is refused at the gate. (A journal-restored cell is
// marked on its cache entry, not here.)
//
// Every RunCache keeps one, and the journal is optional. With one
// (NewRunCacheWithJournal), every completed cell and every failed attempt
// is also a durable journal append, and the replay restores the state on
// open, so it survives kill -9. Without one the state holds for the
// process lifetime, with identical attempt, latch, poison and backoff
// semantics, and nothing is encoded or appended.
//
// All methods are safe for concurrent use.
type cellStore struct {
	j *journal.Journal // nil: memory-only

	mu sync.Mutex
	// attempts maps a cell key to its cumulative failed executions
	// (replayed from fault records, updated as this session fails).
	attempts map[string]uint32
	// latched maps a cell key to its permanent-failure record.
	latched map[string]*LatchedError
}

// PriorAttempts returns how many times the cell has already failed,
// including in previous sessions.
func (s *cellStore) PriorAttempts(key string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.latched[key]; e != nil {
		return e.Attempts
	}
	return s.attempts[key]
}

// Gate returns the cell's *LatchedError when its recorded attempts meet or
// exceed budget, nil when it may (re)execute. A cell latched under a smaller
// -retries budget becomes retryable again when the budget is raised: the
// latch stores attempts, not a verdict. Poison latches are the exception —
// they hold at any budget, since the quarantine counted worker deaths, not
// attempts.
func (s *cellStore) Gate(key string, budget uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.latched[key]; e != nil && (e.Poison || e.Attempts >= budget) {
		return e
	}
	return nil
}

// Put records a completed cell, clearing its fault state; a journaled
// store also appends the record encode builds. An encode or append error
// only costs durability — the in-memory result is already good — so it is
// swallowed (a failed append marks the journal dead, which reports itself
// through Journal.Stats/Close).
func (s *cellStore) Put(key string, encode func() (journal.Record, error)) {
	s.mu.Lock()
	delete(s.attempts, key)
	delete(s.latched, key)
	s.mu.Unlock()
	if s.j == nil {
		return
	}
	if rec, err := encode(); err == nil {
		s.j.Append(rec)
	}
}

// Fault records one failed execution attempt (cumulative count) and, when
// permanent, latches the cell; a cause carrying the PermanentFaulter marker
// makes it a poison latch. A journaled store also appends a fault record.
func (s *cellStore) Fault(key, bench string, attempts uint32, permanent bool, cause error) {
	poison := IsPermanentFault(cause)
	s.mu.Lock()
	if permanent {
		s.latched[key] = &LatchedError{Bench: bench, Key: key, Attempts: attempts, Msg: cause.Error(), Poison: poison}
		delete(s.attempts, key)
	} else {
		s.attempts[key] = attempts
	}
	s.mu.Unlock()
	if s.j == nil {
		return
	}
	data, err := json.Marshal(faultPayload{Bench: bench, Msg: cause.Error(), Poison: poison})
	if err != nil {
		return
	}
	s.j.Append(journal.Record{
		Kind:      recKindFault,
		Key:       key,
		Attempts:  attempts,
		Permanent: permanent,
		Data:      data,
	})
}

// Executor executes a cache's misses: in process by default, or out of
// process through the shard coordinator's worker pool (SetExecutor).
// Everything above it (single-flight dedup, the retry/backoff budget,
// journaling, latching, telemetry) is the same either way; only the raw
// simulation moves.
//
// Executors must honour the *Fault contract: a contained simulation
// failure (including a worker death or an expired lease, which are faults
// of the fleet rather than of the machine model) comes back as an error
// matching *Fault so the cache's bounded retry re-enqueues the cell, while
// configuration errors and context cancellation come back untyped and are
// not retried. An error additionally implementing PermanentFaulter latches
// the cell immediately, budget or not — the poison-cell quarantine path.
type Executor interface {
	ExecRun(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error)
	ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error)
}

// localExecutor runs cache misses in process; every cache starts with it.
type localExecutor struct{}

func (localExecutor) ExecRun(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error) {
	return RunContext(ctx, prof, opt)
}

func (localExecutor) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	return TrafficOnly(ctx, prof, policy, sizeBytes, maxInsts, ctxPeriod)
}

// SetExecutor routes this cache's simulations through ex instead of running
// them in process. Characterisation passes stay local: they are cheap
// functional passes not worth a round trip. Call before the sweep starts;
// the cache does not synchronise against a concurrent swap.
func (c *RunCache) SetExecutor(ex Executor) { c.exec = ex }

// PermanentFaulter marks an error that must latch its cell immediately:
// retrying cannot help. The shard coordinator's poison-cell error (a cell
// that has killed K distinct workers) implements it; the cache latches such
// cells in the store even when retry budget remains.
type PermanentFaulter interface {
	PermanentFault() bool
}

// IsPermanentFault reports whether err carries the immediate-latch marker
// anywhere in its unwrap chain.
func IsPermanentFault(err error) bool {
	for e := err; e != nil; e = unwrapOnce(e) {
		if pf, ok := e.(PermanentFaulter); ok && pf.PermanentFault() {
			return true
		}
	}
	return false
}

// unwrapOnce is errors.Unwrap without the multi-error fan-out (a linear
// chain is all the cache ever builds).
func unwrapOnce(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
