// Package cache implements the memory hierarchy of the simulated machine:
// set-associative write-back write-allocate caches with LRU replacement, a
// fixed-latency main memory, and the DL1→UL2→Mem chain configured per the
// paper's Table 2. Latency modelling is per-access; port arbitration is the
// pipeline's job (the cache reports latencies, the pipeline decides how many
// accesses start per cycle).
package cache

import "fmt"

// Level is anything that can service a memory access and report its
// latency in CPU cycles.
type Level interface {
	// Access performs a read (write=false) or write (write=true) of the
	// block containing addr and returns the total latency in cycles.
	Access(addr uint64, write bool) int
}

// Config describes one cache level.
type Config struct {
	// Name identifies the cache in stats dumps ("dl1", "ul2", …).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry (%d/%d/%d)", c.Name, c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %q: hit latency %d < 1", c.Name, c.HitLatency)
	}
	return nil
}

// Stats are the per-cache access counters.
type Stats struct {
	// Accesses, Hits, Misses count block accesses.
	Accesses, Hits, Misses uint64
	// Reads and Writes split Accesses by type.
	Reads, Writes uint64
	// Writebacks counts dirty-victim evictions (including flushes).
	Writebacks uint64
	// BytesIn counts fill traffic from the next level.
	BytesIn uint64
	// BytesOut counts writeback traffic to the next level.
	BytesOut uint64
}

// MissRate returns Misses/Accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// stamp is the LRU timestamp (higher = more recent).
	stamp uint64
}

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	cfg   Config
	next  Level
	sets  []line // sets*assoc lines, set-major
	assoc int
	// setShift/setMask extract the set index from an address; tagShift
	// drops the offset and index bits in one shift (sets is a power of
	// two, so the tag divide is exactly this shift).
	setShift uint
	setMask  uint64
	tagShift uint
	clock    uint64
	stats    Stats
}

// New builds a cache over the given next level (which must not be nil).
func New(cfg Config, next Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("cache %q: nil next level", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		next:    next,
		sets:    make([]line, lines),
		assoc:   cfg.Assoc,
		setMask: uint64(sets - 1),
	}
	for sh := 0; cfg.LineBytes>>sh > 1; sh++ {
		c.setShift++
	}
	c.tagShift = c.setShift
	for s := sets; s > 1; s >>= 1 {
		c.tagShift++
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset returns the cache to its just-built cold state — every line
// invalid, counters and the LRU clock zeroed — without reallocating the
// line array. A reset cache is indistinguishable from a fresh New of the
// same configuration, which is what lets campaign runners recycle
// hierarchies across cells.
func (c *Cache) Reset() {
	clear(c.sets)
	c.clock = 0
	c.stats = Stats{}
}

func (c *Cache) set(addr uint64) []line {
	idx := (addr >> c.setShift) & c.setMask
	return c.sets[idx*uint64(c.assoc) : (idx+1)*uint64(c.assoc)]
}

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool) int {
	c.clock++
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	tag := addr >> c.tagShift
	set := c.set(addr)
	// Hit?
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].stamp = c.clock
			if write {
				set[i].dirty = true
			}
			return c.cfg.HitLatency
		}
	}
	// Miss: fill an invalid way if one exists, otherwise evict the LRU.
	c.stats.Misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		c.stats.BytesOut += uint64(c.cfg.LineBytes)
		// Writebacks go to the next level off the critical path; the
		// next level's counters still see the write.
		c.writebackVictim(set[victim], addr)
	}
	fillLat := c.next.Access(addr, false)
	c.stats.BytesIn += uint64(c.cfg.LineBytes)
	set[victim] = line{tag: tag, valid: true, dirty: write, stamp: c.clock}
	return c.cfg.HitLatency + fillLat
}

// writebackVictim reconstructs the victim's address and writes it through to
// the next level (latency is not charged: writebacks are buffered).
func (c *Cache) writebackVictim(v line, probeAddr uint64) {
	setIdx := (probeAddr >> c.setShift) & c.setMask
	victimAddr := (v.tag*(c.setMask+1) + setIdx) << c.setShift
	c.next.Access(victimAddr, true)
}

// FlushAll writes back every dirty line and invalidates the whole cache,
// returning the number of dirty lines written back (context switches).
func (c *Cache) FlushAll() int {
	dirty := 0
	sets := int(c.setMask + 1)
	for s := 0; s < sets; s++ {
		for w := 0; w < c.assoc; w++ {
			ln := &c.sets[s*c.assoc+w]
			if ln.valid && ln.dirty {
				dirty++
				c.stats.Writebacks++
				c.stats.BytesOut += uint64(c.cfg.LineBytes)
				victimAddr := (ln.tag*(c.setMask+1) + uint64(s)) << c.setShift
				c.next.Access(victimAddr, true)
			}
			*ln = line{}
		}
	}
	return dirty
}

// Memory is the fixed-latency DRAM backing the hierarchy.
type Memory struct {
	// Latency is the access latency in CPU cycles.
	Latency int
	// Accesses counts total block requests.
	Accesses uint64
	// ReadsCount/WritesCount split Accesses.
	ReadsCount, WritesCount uint64
}

// NewMemory returns a memory with the given latency.
func NewMemory(latency int) *Memory { return &Memory{Latency: latency} }

// Reset zeroes the access counters, returning the memory to its
// just-built state.
func (m *Memory) Reset() {
	m.Accesses, m.ReadsCount, m.WritesCount = 0, 0, 0
}

// Access implements Level.
func (m *Memory) Access(addr uint64, write bool) int {
	m.Accesses++
	if write {
		m.WritesCount++
	} else {
		m.ReadsCount++
	}
	return m.Latency
}
