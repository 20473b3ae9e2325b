// Package tracecache memoizes recorded instruction traces. The synth
// generator is fully deterministic in the profile fingerprint, so every
// run of one workload consumes a prefix of the same infinite stream —
// yet each run used to re-execute the generator's control-flow machinery
// per instruction. The cache records the generator's output once as a
// compact trace.Recording (a shape dictionary, 16-bit shape ids and the
// load/store address stream, about 5–6 bytes per instruction) and
// replays it for every later run.
//
// A workload has at most one recording. A run of n instructions replays
// the first n of it, so every budget up to the recorded length shares the
// one recording; a run longer than the recording records at its own
// budget and replaces the shorter entry.
//
// The cache is bounded by a byte budget with LRU eviction, charged each
// recording's exact size, so long campaigns over many profiles cannot
// grow it without limit. A recording is made only when its worst case
// fits the whole budget (trace.ShapeLimit), so an installed recording
// always fits; otherwise the caller streams straight from the generator,
// as it does for a workload with more distinct shapes than the recording
// may name. The evicted, oversize and unrecordable cases are all
// transparent to callers: Stream always returns a stream that yields the
// exact same instructions.
package tracecache

import (
	"sync"

	"svf/internal/trace"
)

// Stats are the cache's observability counters.
type Stats struct {
	// Hits counts Stream calls served from a recorded trace, including
	// calls that waited for a concurrent recording and then replayed it.
	Hits uint64
	// Misses counts Stream calls that had to run the generator, whether
	// or not the output was recorded.
	Misses uint64
	// Evictions counts traces dropped to make room under the budget.
	Evictions uint64
	// Entries and UsedBytes describe current occupancy.
	Entries   int
	UsedBytes int64
}

type entry struct {
	fp    string
	rec   *trace.Recording
	bytes int64
	// prev/next chain the LRU ring (older toward prev of the sentinel).
	prev, next *entry
}

// Cache is a byte-budgeted LRU store of recorded traces, one per workload
// fingerprint. It is safe for concurrent use; recording is single-flight
// per workload, so a campaign that launches every configuration of one
// profile at once still runs the generator exactly once.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*entry
	lru     entry // sentinel: lru.next is most recent, lru.prev oldest
	// inflight holds each workload's longest recording in progress.
	inflight map[string]*flight
	// unrecordable holds, per workload, the shortest budget whose
	// recording the record func declined (too many shapes, or a faulty
	// generator) under the current budget; no longer budget can succeed.
	unrecordable map[string]int
	stats        Stats
}

type flight struct {
	n    int // instructions being recorded
	done chan struct{}
	rec  *trace.Recording // nil if the recording was abandoned
}

// New returns a cache bounded by budgetBytes. A non-positive budget
// disables recording entirely: Stream always falls through to the
// generator.
func New(budgetBytes int64) *Cache {
	c := &Cache{
		budget:       budgetBytes,
		entries:      make(map[string]*entry),
		inflight:     make(map[string]*flight),
		unrecordable: make(map[string]int),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// SetBudget rebounds the cache, evicting LRU entries if the new budget is
// already exceeded. A non-positive budget empties the cache and disables
// recording. The shape limit moves with the budget, so every workload may
// try to record again.
func (c *Cache) SetBudget(budgetBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budgetBytes
	c.evictToFitLocked(0)
	clear(c.unrecordable)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.UsedBytes = c.used
	return st
}

func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache) pushFront(e *entry) {
	e.prev = &c.lru
	e.next = c.lru.next
	e.prev.next = e
	e.next.prev = e
}

// removeLocked drops e from the cache. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	e.unlink()
	delete(c.entries, e.fp)
	c.used -= e.bytes
}

// evictToFitLocked drops LRU entries until need more bytes fit under the
// budget. Caller holds c.mu.
func (c *Cache) evictToFitLocked(need int64) {
	for c.used+need > c.budget && c.lru.prev != &c.lru {
		c.removeLocked(c.lru.prev)
		c.stats.Evictions++
	}
}

// installLocked makes rec fp's recording unless an at-least-as-long one
// is already resident (a concurrent longer flight landed first) or rec no
// longer fits a budget shrunk while it was recorded. Caller holds c.mu.
func (c *Cache) installLocked(fp string, rec *trace.Recording) {
	e := &entry{fp: fp, rec: rec, bytes: rec.Bytes()}
	if e.bytes > c.budget {
		return
	}
	if old, ok := c.entries[fp]; ok {
		if old.rec.Len() >= rec.Len() {
			return
		}
		c.removeLocked(old)
	}
	c.evictToFitLocked(e.bytes)
	c.entries[fp] = e
	c.pushFront(e)
	c.used += e.bytes
}

// Stream returns the first n instructions of workload fp as a stream.
// When fp's recording holds at least n instructions it replays that
// prefix. On a recordable miss it calls record with the most shapes the
// recording may name (trace.ShapeLimit of n under the budget); record must
// return a recording of exactly the first n instructions of the workload,
// or nil when it cannot make one (too many shapes). Stream stores the
// result in place of any shorter recording and replays it. When the
// recording's worst case overflows the budget (or n is negative), or the
// workload could not be recorded at a budget up to n, it calls stream and
// returns the live generator unrecorded. Misses are single-flighted per
// workload: a call whose budget an in-flight recording covers waits for
// it and replays its prefix.
//
// A record error (its run was cancelled) abandons the recording: Stream
// installs nothing, returns the error, and lets the calls waiting on it
// generate live, as after a panicking record. Unlike a nil recording it
// marks nothing unrecordable, so a later call records afresh.
func (c *Cache) Stream(fp string, n int, record func(maxShapes int) (*trace.Recording, error), stream func() trace.Stream) (trace.Stream, error) {
	c.mu.Lock()
	maxShapes := trace.ShapeLimit(n, c.budget)
	if m, ok := c.unrecordable[fp]; maxShapes == 0 || ok && n >= m {
		c.stats.Misses++
		c.mu.Unlock()
		return stream(), nil // oversize or unrecordable: stream straight from the generator
	}
	if e, ok := c.entries[fp]; ok && e.rec.Len() >= n {
		e.unlink()
		c.pushFront(e)
		c.stats.Hits++
		c.mu.Unlock()
		return e.rec.Replay(n), nil
	}
	if f, ok := c.inflight[fp]; ok && f.n >= n {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		if f.rec == nil {
			c.stats.Misses++
			c.mu.Unlock()
			return stream(), nil // the recorder abandoned; generate live
		}
		c.stats.Hits++
		c.mu.Unlock()
		return f.rec.Replay(n), nil
	}
	c.stats.Misses++
	f := &flight{n: n, done: make(chan struct{})}
	c.inflight[fp] = f
	c.mu.Unlock()

	var rec *trace.Recording
	// The deferred cleanup runs even if record panics, so waiters never
	// block on an abandoned flight; the panic itself propagates.
	defer func() {
		c.mu.Lock()
		if c.inflight[fp] == f {
			delete(c.inflight, fp)
		}
		f.rec = rec
		if rec != nil {
			c.installLocked(fp, rec)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	var err error
	if rec, err = record(maxShapes); err != nil {
		return nil, err
	}
	if rec == nil {
		c.mu.Lock()
		if m, ok := c.unrecordable[fp]; !ok || n < m {
			c.unrecordable[fp] = n
		}
		c.mu.Unlock()
		return stream(), nil
	}
	return rec.Replay(n), nil
}
