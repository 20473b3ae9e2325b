// Package tracecache memoizes pre-decoded instruction traces. The synth
// generator is fully deterministic in the profile fingerprint, so every
// run of one workload consumes a prefix of the same infinite stream —
// yet each run used to re-execute the generator's control-flow machinery
// per instruction. The cache records the generator's output once into a
// flat []isa.Inst buffer and replays it for every later run, turning
// stream production into a slice walk.
//
// A workload has at most one recording. A run of n instructions replays
// the first n of it, so every budget up to the recorded length shares the
// one buffer; a run longer than the recording records at its own budget
// and replaces the shorter entry.
//
// The cache is bounded by a byte budget with LRU eviction, so long
// campaigns over many profiles cannot grow it without limit; a trace
// whose budgeted size alone exceeds the whole cache is never recorded
// and the caller streams straight from the generator. Both the evicted
// and the oversize case are transparent to callers: Stream always
// returns a stream that yields the exact same instructions.
package tracecache

import (
	"sync"
	"unsafe"

	"svf/internal/isa"
	"svf/internal/trace"
)

// instBytes is the budget charge per recorded instruction.
var instBytes = int64(unsafe.Sizeof(isa.Inst{}))

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
	insts []isa.Inst
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
	stats    Stats
}

type flight struct {
	n     int // instructions being recorded
	done  chan struct{}
	insts []isa.Inst // nil if the recording was abandoned
}

// New returns a cache bounded by budgetBytes. A non-positive budget
// disables recording entirely: Stream always falls through to the
// generator.
func New(budgetBytes int64) *Cache {
	c := &Cache{
		budget:   budgetBytes,
		entries:  make(map[string]*entry),
		inflight: make(map[string]*flight),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// SetBudget rebounds the cache, evicting LRU entries if the new budget is
// already exceeded. A non-positive budget empties the cache and disables
// recording.
func (c *Cache) SetBudget(budgetBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budgetBytes
	c.evictToFitLocked(0)
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

// installLocked makes insts fp's recording unless an at-least-as-long one
// is already resident (a concurrent longer flight landed first). Caller
// holds c.mu.
func (c *Cache) installLocked(fp string, insts []isa.Inst) {
	if old, ok := c.entries[fp]; ok {
		if len(old.insts) >= len(insts) {
			return
		}
		c.removeLocked(old)
	}
	e := &entry{fp: fp, insts: insts, bytes: int64(len(insts)) * instBytes}
	c.evictToFitLocked(e.bytes)
	c.entries[fp] = e
	c.pushFront(e)
	c.used += e.bytes
}

// Stream returns the first n instructions of workload fp as a stream.
// When fp's recording holds at least n instructions it replays that
// prefix. On a recordable miss it calls record, which must materialize
// exactly the first n instructions of the workload, stores the result in
// place of any shorter recording, and replays it. When n alone overflows
// the budget (or is negative) it calls stream and returns the live
// generator unrecorded. Misses are single-flighted per workload: a call
// whose budget an in-flight recording covers waits for it and replays its
// prefix.
func (c *Cache) Stream(fp string, n int, record func() []isa.Inst, stream func() trace.Stream) trace.Stream {
	c.mu.Lock()
	if n < 0 || int64(n)*instBytes > c.budget || c.budget <= 0 {
		c.stats.Misses++
		c.mu.Unlock()
		return stream() // oversize: stream straight from the generator
	}
	if e, ok := c.entries[fp]; ok && len(e.insts) >= n {
		e.unlink()
		c.pushFront(e)
		c.stats.Hits++
		c.mu.Unlock()
		return trace.NewSliceStream(e.insts[:n])
	}
	if f, ok := c.inflight[fp]; ok && f.n >= n {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		if f.insts == nil {
			c.stats.Misses++
			c.mu.Unlock()
			return stream() // the recorder abandoned; generate live
		}
		c.stats.Hits++
		c.mu.Unlock()
		return trace.NewSliceStream(f.insts[:n])
	}
	c.stats.Misses++
	f := &flight{n: n, done: make(chan struct{})}
	c.inflight[fp] = f
	c.mu.Unlock()

	var insts []isa.Inst
	// The deferred cleanup runs even if record panics, so waiters never
	// block on an abandoned flight; the panic itself propagates.
	defer func() {
		c.mu.Lock()
		if c.inflight[fp] == f {
			delete(c.inflight, fp)
		}
		f.insts = insts
		if insts != nil {
			c.installLocked(fp, insts)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	insts = record()
	if insts == nil {
		return stream()
	}
	return trace.NewSliceStream(insts)
}
