package cache

import (
	"math/rand/v2"
	"testing"
)

func newTestCache(t *testing.T, size, line, assoc, lat int) (*Cache, *Memory) {
	t.Helper()
	mem := NewMemory(60)
	c, err := New(Config{Name: "t", SizeBytes: size, LineBytes: line, Assoc: assoc, HitLatency: lat}, mem)
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

// resident reports whether addr currently hits, without touching LRU
// state or statistics.
func resident(c *Cache, addr uint64) bool {
	tag := addr >> c.tagShift
	for _, ln := range c.set(addr) {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func TestConfigValidate(t *testing.T) {
	mem := NewMemory(1)
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 32, Assoc: 1, HitLatency: 1},
		{Name: "b", SizeBytes: 1024, LineBytes: 24, Assoc: 1, HitLatency: 1},    // non-pow2 line
		{Name: "c", SizeBytes: 1000, LineBytes: 32, Assoc: 1, HitLatency: 1},    // size not multiple
		{Name: "d", SizeBytes: 1024, LineBytes: 32, Assoc: 5, HitLatency: 1},    // lines % assoc != 0
		{Name: "e", SizeBytes: 96 * 32, LineBytes: 32, Assoc: 4, HitLatency: 1}, // sets not pow2 (24 sets)
		{Name: "f", SizeBytes: 1024, LineBytes: 32, Assoc: 1, HitLatency: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, mem); err == nil {
			t.Errorf("config %q should fail validation", cfg.Name)
		}
	}
	if _, err := New(Config{Name: "ok", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitLatency: 1}, nil); err == nil {
		t.Error("nil next level should fail")
	}
}

func TestHitMissLatency(t *testing.T) {
	c, _ := newTestCache(t, 1024, 32, 1, 3)
	if lat := c.Access(0x1000, false); lat != 3+60 {
		t.Errorf("cold miss latency = %d, want 63", lat)
	}
	if lat := c.Access(0x1008, false); lat != 3 {
		t.Errorf("same-line hit latency = %d, want 3", lat)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	// Direct-mapped 2-line cache: lines at stride 64 conflict.
	c, mem := newTestCache(t, 64, 32, 1, 1)
	c.Access(0x0, true)   // dirty line in set 0
	c.Access(0x40, false) // evicts it
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
	if st.BytesOut != 32 {
		t.Errorf("BytesOut = %d, want 32", st.BytesOut)
	}
	// Memory saw the writeback plus two fills.
	if mem.WritesCount != 1 || mem.ReadsCount != 2 {
		t.Errorf("mem reads=%d writes=%d, want 2/1", mem.ReadsCount, mem.WritesCount)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c, _ := newTestCache(t, 64, 32, 1, 1)
	c.Access(0x0, false)
	c.Access(0x40, false)
	if st := c.Stats(); st.Writebacks != 0 {
		t.Errorf("clean eviction produced %d writebacks", st.Writebacks)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: fill both ways, touch the first, then insert a third
	// line; the second (least recently used) must be evicted.
	c, _ := newTestCache(t, 128, 32, 2, 1)
	// All of these map to set 0 (two sets; stride 64 keeps set index 0).
	a, b, d := uint64(0x000), uint64(0x080), uint64(0x100)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a now MRU
	c.Access(d, false) // evicts b
	if !resident(c, a) {
		t.Error("a should still be resident")
	}
	if resident(c, b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !resident(c, d) {
		t.Error("d should be resident")
	}
}

// TestProbeDoesNotPerturb: the tests' residency probe is a pure read, so
// the LRU and flush tests that use it observe the cache without moving it.
func TestProbeDoesNotPerturb(t *testing.T) {
	c, _ := newTestCache(t, 64, 32, 1, 1)
	c.Access(0x0, false)
	before := c.Stats()
	resident(c, 0x0)
	resident(c, 0x999)
	if c.Stats() != before {
		t.Error("probe changed statistics")
	}
}

func TestFlushAll(t *testing.T) {
	c, mem := newTestCache(t, 256, 32, 2, 1)
	c.Access(0x0, true)
	c.Access(0x20, true)
	c.Access(0x40, false)
	memWritesBefore := mem.WritesCount
	n := c.FlushAll()
	if n != 2 {
		t.Errorf("FlushAll returned %d, want 2 dirty lines", n)
	}
	if mem.WritesCount != memWritesBefore+2 {
		t.Errorf("memory writes = %d, want +2", mem.WritesCount)
	}
	if resident(c, 0x0) || resident(c, 0x40) {
		t.Error("cache should be empty after flush")
	}
	// Flushing again is a no-op.
	if n := c.FlushAll(); n != 0 {
		t.Errorf("second FlushAll returned %d", n)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c, _ := newTestCache(t, 64, 32, 1, 1)
	c.Access(0x0, false) // clean fill
	c.Access(0x8, true)  // hit, now dirty
	c.Access(0x40, false)
	if st := c.Stats(); st.Writebacks != 1 {
		t.Errorf("dirty-on-hit line not written back (wb=%d)", st.Writebacks)
	}
}

func TestHierarchyLatencyChain(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := h.DL1.Access(0x1_0000_0000, false)
	// Cold miss traverses DL1 (3) + UL2 (16) + Mem (60).
	if lat != 3+16+60 {
		t.Errorf("cold chain latency = %d, want 79", lat)
	}
	if lat := h.DL1.Access(0x1_0000_0000, false); lat != 3 {
		t.Errorf("DL1 hit latency = %d, want 3", lat)
	}
	// A different word in the same UL2 line but different DL1 line:
	// DL1 line 32B, UL2 line 64B.
	if lat := h.DL1.Access(0x1_0000_0020, false); lat != 3+16 {
		t.Errorf("L2 hit latency = %d, want 19", lat)
	}
}

func TestDefaultHierarchyMatchesTable2(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.IL1.SizeBytes != 256<<10 || cfg.IL1.Assoc != 8 || cfg.IL1.HitLatency != 1 {
		t.Errorf("IL1 config %+v does not match Table 2", cfg.IL1)
	}
	if cfg.DL1.SizeBytes != 64<<10 || cfg.DL1.Assoc != 4 || cfg.DL1.HitLatency != 3 {
		t.Errorf("DL1 config %+v does not match Table 2", cfg.DL1)
	}
	if cfg.UL2.SizeBytes != 512<<10 || cfg.UL2.Assoc != 4 || cfg.UL2.HitLatency != 16 {
		t.Errorf("UL2 config %+v does not match Table 2", cfg.UL2)
	}
	if cfg.MemLatency != 60 {
		t.Errorf("memory latency %d, want 60", cfg.MemLatency)
	}
}

func TestMissRate(t *testing.T) {
	c, _ := newTestCache(t, 1024, 32, 1, 1)
	if c.Stats().MissRate() != 0 {
		t.Error("idle cache should report 0 miss rate")
	}
	c.Access(0x0, false)
	c.Access(0x0, false)
	c.Access(0x0, false)
	c.Access(0x0, false)
	if got := c.Stats().MissRate(); got != 0.25 {
		t.Errorf("miss rate = %g, want 0.25", got)
	}
}

// referenceCache is a naive model: a map of resident lines with explicit
// LRU ordering, used to cross-check the real implementation.
type referenceCache struct {
	sets  map[uint64][]refLine // set index → lines in LRU order (front = LRU)
	assoc int
	line  uint64
	nsets uint64
	wb    int
}

type refLine struct {
	tag   uint64
	dirty bool
}

func newReference(size, line, assoc int) *referenceCache {
	return &referenceCache{
		sets:  map[uint64][]refLine{},
		assoc: assoc,
		line:  uint64(line),
		nsets: uint64(size / line / assoc),
	}
}

func (r *referenceCache) access(addr uint64, write bool) (hit bool) {
	blk := addr / r.line
	set := blk % r.nsets
	tag := blk / r.nsets
	lines := r.sets[set]
	for i, ln := range lines {
		if ln.tag == tag {
			// Move to MRU position.
			lines = append(append(append([]refLine{}, lines[:i]...), lines[i+1:]...), refLine{tag: tag, dirty: ln.dirty || write})
			r.sets[set] = lines
			return true
		}
	}
	if len(lines) >= r.assoc {
		if lines[0].dirty {
			r.wb++
		}
		lines = lines[1:]
	}
	r.sets[set] = append(lines, refLine{tag: tag, dirty: write})
	return false
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	// Property: hit/miss sequence and writeback count match a naive
	// LRU reference model across random access streams.
	for _, cfg := range []struct{ size, line, assoc int }{
		{512, 32, 1}, {1024, 32, 2}, {4096, 64, 4}, {2048, 16, 8},
	} {
		c, _ := newTestCache(t, cfg.size, cfg.line, cfg.assoc, 1)
		ref := newReference(cfg.size, cfg.line, cfg.assoc)
		rng := rand.New(rand.NewPCG(42, uint64(cfg.size)))
		for i := 0; i < 20000; i++ {
			// Confined address space to force conflicts.
			addr := uint64(rng.IntN(4 * cfg.size))
			write := rng.IntN(3) == 0
			wantHit := ref.access(addr, write)
			before := c.Stats().Hits
			c.Access(addr, write)
			gotHit := c.Stats().Hits > before
			if gotHit != wantHit {
				t.Fatalf("cfg %+v access %d (%#x, write=%v): hit=%v, reference says %v", cfg, i, addr, write, gotHit, wantHit)
			}
		}
		if int(c.Stats().Writebacks) != ref.wb {
			t.Errorf("cfg %+v writebacks = %d, reference %d", cfg, c.Stats().Writebacks, ref.wb)
		}
	}
}

func TestMemoryCounters(t *testing.T) {
	m := NewMemory(60)
	if m.Access(0x1000, false) != 60 {
		t.Error("memory read latency")
	}
	if m.Access(0x1000, true) != 60 {
		t.Error("memory write latency")
	}
	if m.Accesses != 2 || m.ReadsCount != 1 || m.WritesCount != 1 {
		t.Errorf("memory counters: %+v", *m)
	}
}

// recordingNext captures the addresses the cache sends down-hierarchy.
type recordingNext struct {
	reads, writes []uint64
}

func (r *recordingNext) Access(addr uint64, write bool) int {
	if write {
		r.writes = append(r.writes, addr)
	} else {
		r.reads = append(r.reads, addr)
	}
	return 1
}

func TestWritebackAddressReconstruction(t *testing.T) {
	// The evicted line's writeback must carry the victim's own address,
	// reconstructed from its tag and set, not the incoming probe's.
	rec := &recordingNext{}
	c, err := New(Config{Name: "t", SizeBytes: 128, LineBytes: 32, Assoc: 1, HitLatency: 1}, rec)
	if err != nil {
		t.Fatal(err)
	}
	victim := uint64(0x1000) // set (0x1000>>5)&3 = 0
	c.Access(victim, true)
	probe := victim + 128*7 // same set, different tag
	c.Access(probe, false)
	if len(rec.writes) != 1 {
		t.Fatalf("writes = %v", rec.writes)
	}
	if rec.writes[0] != victim {
		t.Errorf("writeback address %#x, want %#x", rec.writes[0], victim)
	}
}

func TestFlushAddressReconstruction(t *testing.T) {
	rec := &recordingNext{}
	c, err := New(Config{Name: "t", SizeBytes: 256, LineBytes: 32, Assoc: 2, HitLatency: 1}, rec)
	if err != nil {
		t.Fatal(err)
	}
	dirty := []uint64{0x2000, 0x2020, 0x4040}
	for _, a := range dirty {
		c.Access(a, true)
	}
	c.FlushAll()
	if len(rec.writes) != len(dirty) {
		t.Fatalf("flush wrote %d lines, want %d", len(rec.writes), len(dirty))
	}
	seen := map[uint64]bool{}
	for _, a := range rec.writes {
		seen[a] = true
	}
	for _, a := range dirty {
		if !seen[a&^31] {
			t.Errorf("flush missed line of %#x (wrote %v)", a, rec.writes)
		}
	}
}

func TestTrafficBytesAccounting(t *testing.T) {
	c, _ := newTestCache(t, 128, 32, 1, 1)
	for i := uint64(0); i < 20; i++ {
		c.Access(i*32, true) // every access misses and dirties
	}
	st := c.Stats()
	if st.BytesIn != 20*32 {
		t.Errorf("BytesIn = %d, want 640", st.BytesIn)
	}
	// 4-line cache: 16 of the 20 dirty lines were evicted.
	if st.BytesOut != 16*32 {
		t.Errorf("BytesOut = %d, want 512", st.BytesOut)
	}
}
