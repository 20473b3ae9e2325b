// Package tracecache memoizes pre-decoded instruction traces. The synth
// generator is fully deterministic in the profile fingerprint, so every
// run of one (profile, instruction budget) pair consumes the identical
// stream — yet each run used to re-execute the generator's control-flow
// machinery per instruction. The cache records the generator's output
// once into a flat []isa.Inst buffer and replays it for every later run,
// turning stream production into a slice walk.
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

// Key identifies one recorded trace: the workload's content fingerprint
// plus the instruction budget it was recorded under. Budgets key
// separately because a shorter recording is a strict prefix a longer run
// must not be truncated to.
type Key struct {
	// FP is the workload fingerprint (profile contents, not ID).
	FP string
	// N is the instruction budget the trace was recorded under.
	N int
}

// Stats are the cache's observability counters.
type Stats struct {
	// Hits counts Stream calls served from a recorded trace.
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
	key   Key
	insts []isa.Inst
	bytes int64
	// prev/next chain the LRU ring (older toward prev of the sentinel).
	prev, next *entry
}

// Cache is a byte-budgeted LRU store of recorded traces. It is safe for
// concurrent use; recording is single-flight per key, so a campaign that
// launches every configuration of one profile at once still runs the
// generator exactly once.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	entries  map[Key]*entry
	lru      entry // sentinel: lru.next is most recent, lru.prev oldest
	inflight map[Key]*flight
	stats    Stats
}

type flight struct {
	done  chan struct{}
	insts []isa.Inst // nil if the recording was abandoned
}

// New returns a cache bounded by budgetBytes. A non-positive budget
// disables recording entirely: Stream always falls through to the
// generator.
func New(budgetBytes int64) *Cache {
	c := &Cache{
		budget:   budgetBytes,
		entries:  make(map[Key]*entry),
		inflight: make(map[Key]*flight),
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

// evictToFitLocked drops LRU entries until need more bytes fit under the
// budget. Caller holds c.mu.
func (c *Cache) evictToFitLocked(need int64) {
	for c.used+need > c.budget && c.lru.prev != &c.lru {
		victim := c.lru.prev
		victim.unlink()
		delete(c.entries, victim.key)
		c.used -= victim.bytes
		c.stats.Evictions++
	}
}

// Stream returns an instruction stream for key. On a hit it replays the
// recorded trace; on a recordable miss it calls record (which must
// materialize the first key.N instructions of the workload), stores the
// result, and replays it; when key.N alone overflows the budget it calls
// stream and returns the live generator unrecorded. Concurrent misses on
// one key are single-flighted: one caller records, the rest wait and
// replay.
func (c *Cache) Stream(key Key, record func() []isa.Inst, stream func() trace.Stream) trace.Stream {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.unlink()
		c.pushFront(e)
		c.stats.Hits++
		c.mu.Unlock()
		return trace.NewSliceStream(e.insts)
	}
	c.stats.Misses++
	need := int64(key.N) * instBytes
	if need > c.budget || c.budget <= 0 {
		c.mu.Unlock()
		return stream() // oversize: stream straight from the generator
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.insts == nil {
			return stream() // the recorder abandoned; generate live
		}
		return trace.NewSliceStream(f.insts)
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	var insts []isa.Inst
	// The deferred cleanup runs even if record panics, so waiters never
	// block on an abandoned flight; the panic itself propagates.
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		f.insts = insts
		if insts != nil {
			e := &entry{key: key, insts: insts, bytes: int64(len(insts)) * instBytes}
			c.evictToFitLocked(e.bytes)
			c.entries[key] = e
			c.pushFront(e)
			c.used += e.bytes
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
