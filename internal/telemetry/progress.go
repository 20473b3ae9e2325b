package telemetry

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Progress is the campaign-level completion tracker behind the /progress
// endpoint: cells done vs total, fault and latch counts, and a rate-based
// ETA. All updates are atomic; a nil *Progress ignores every call so the
// experiment runner needs no guards.
type Progress struct {
	start                        time.Time
	total, done, faults, latched atomic.Int64
	// shard, when set, supplies the live worker-fleet section of the
	// snapshot (sharded campaigns; see SetShard).
	shard atomic.Value // of func() ShardStatus
}

// NewProgress returns a tracker whose ETA clock starts now.
func NewProgress() *Progress {
	return &Progress{start: time.Now()}
}

// AddTotal grows the expected cell count (campaigns discover work
// experiment by experiment).
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.total.Add(int64(n))
}

// Done records n completed cells.
func (p *Progress) Done(n int) {
	if p == nil {
		return
	}
	p.done.Add(int64(n))
}

// Fault records one faulted cell.
func (p *Progress) Fault() {
	if p == nil {
		return
	}
	p.faults.Add(1)
}

// Latched records one cell abandoned after retry exhaustion.
func (p *Progress) Latched() {
	if p == nil {
		return
	}
	p.latched.Add(1)
}

// ShardWorker is one worker slot's liveness as served at /progress.
type ShardWorker struct {
	Slot  int  `json:"slot"`
	PID   int  `json:"pid"`
	Gen   int  `json:"gen"` // spawn generation (1 = original process)
	Alive bool `json:"alive"`
	// Bench and LeaseAgeMS describe the in-flight lease, when one exists.
	Bench      string `json:"bench,omitempty"`
	LeaseAgeMS int64  `json:"lease_age_ms,omitempty"`
}

// ShardStatus is the sharded campaign's supervision state: per-worker
// liveness and lease age plus the coordinator's re-enqueue/quarantine
// counters. shard.Pool.Status returns it; it lives here so /progress can
// serve the fleet without an import cycle.
type ShardStatus struct {
	Workers []ShardWorker `json:"workers"`
	// Assigned counts leases handed out; Completed the result/fault frames
	// accepted from live leases.
	Assigned  uint64 `json:"assigned"`
	Completed uint64 `json:"completed"`
	// Reenqueued counts cells reclaimed from dead or expired workers,
	// LeaseExpired the watchdog firings, WorkerDeaths the processes lost
	// and Respawns their replacements.
	Reenqueued   uint64 `json:"reenqueued"`
	LeaseExpired uint64 `json:"lease_expired"`
	WorkerDeaths uint64 `json:"worker_deaths"`
	Respawns     uint64 `json:"respawns"`
	// StaleResults and StaleHeartbeats count frames discarded because
	// their lease had expired or been reassigned; Quarantined counts the
	// poison cells latched after killing K workers.
	StaleResults    uint64 `json:"stale_results"`
	StaleHeartbeats uint64 `json:"stale_heartbeats"`
	Quarantined     uint64 `json:"quarantined"`
}

// String renders the one-line shard summary `svfexp -workers` prints next
// to -cache-stats.
func (s ShardStatus) String() string {
	alive := 0
	for _, w := range s.Workers {
		if w.Alive {
			alive++
		}
	}
	out := fmt.Sprintf("shard: %d/%d workers alive; %d assigned, %d completed", alive, len(s.Workers), s.Assigned, s.Completed)
	if s.WorkerDeaths > 0 || s.Reenqueued > 0 {
		out += fmt.Sprintf("; %d worker deaths (%d lease expiries), %d cells re-enqueued, %d respawns", s.WorkerDeaths, s.LeaseExpired, s.Reenqueued, s.Respawns)
	}
	if s.StaleResults > 0 || s.StaleHeartbeats > 0 {
		out += fmt.Sprintf("; %d stale results, %d stale heartbeats discarded", s.StaleResults, s.StaleHeartbeats)
	}
	if s.Quarantined > 0 {
		out += fmt.Sprintf("; %d poison cells quarantined", s.Quarantined)
	}
	return out
}

// SetShard attaches a live fleet-status source; every Snapshot (and thus
// every /progress response) calls it. Nil-safe.
func (p *Progress) SetShard(fn func() ShardStatus) {
	if p == nil || fn == nil {
		return
	}
	p.shard.Store(fn)
}

// ProgressSnapshot is the JSON shape served at /progress.
type ProgressSnapshot struct {
	Done       int64   `json:"done"`
	Total      int64   `json:"total"`
	Faults     int64   `json:"faults"`
	Latched    int64   `json:"latched"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// ETASec extrapolates remaining wall time from the completion rate so
	// far; -1 when no cells have finished yet.
	ETASec float64 `json:"eta_sec"`
	// Shard is the worker-fleet section, present only for sharded
	// campaigns (SetShard).
	Shard *ShardStatus `json:"shard,omitempty"`
}

// Snapshot returns the current state. Nil-safe (returns zeroes).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{ETASec: -1}
	}
	s := ProgressSnapshot{
		Done:    p.done.Load(),
		Total:   p.total.Load(),
		Faults:  p.faults.Load(),
		Latched: p.latched.Load(),
		ETASec:  -1,
	}
	s.ElapsedSec = time.Since(p.start).Seconds()
	if s.Done > 0 && s.Total > s.Done {
		s.ETASec = s.ElapsedSec / float64(s.Done) * float64(s.Total-s.Done)
	} else if s.Done >= s.Total && s.Total > 0 {
		s.ETASec = 0
	}
	if fn, ok := p.shard.Load().(func() ShardStatus); ok {
		st := fn()
		s.Shard = &st
	}
	return s
}
