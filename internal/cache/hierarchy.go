package cache

// Hierarchy bundles the Table 2 memory system: first-level instruction and
// data caches, a unified second-level cache, and main memory. The stack
// structures (stack cache or SVF) attach beside the DL1: the stack cache
// spills to the L2, the SVF spills to the DL1.
type Hierarchy struct {
	// IL1 is the first-level instruction cache.
	IL1 *Cache
	// DL1 is the first-level data cache.
	DL1 *Cache
	// UL2 is the unified second-level cache.
	UL2 *Cache
	// Mem is main memory.
	Mem *Memory
}

// HierarchyConfig parameterises NewHierarchy.
type HierarchyConfig struct {
	// IL1 geometry.
	IL1 Config
	// DL1 geometry; LineBytes defaults to 32 when zero.
	DL1 Config
	// UL2 geometry.
	UL2 Config
	// MemLatency is the main-memory latency in CPU cycles.
	MemLatency int
}

// DefaultHierarchyConfig returns the paper's Table 2 memory system: 8-way
// 256KB IL1 with a 1-cycle hit, 4-way 64KB DL1 with a 3-cycle hit, 4-way
// 512KB unified L2 with a 16-cycle hit, and 60-cycle main memory.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		IL1:        Config{Name: "il1", SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, HitLatency: 1},
		DL1:        Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 4, HitLatency: 3},
		UL2:        Config{Name: "ul2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4, HitLatency: 16},
		MemLatency: 60,
	}
}

// NewHierarchy builds the chain.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	mem := NewMemory(cfg.MemLatency)
	ul2, err := New(cfg.UL2, mem)
	if err != nil {
		return nil, err
	}
	dl1, err := New(cfg.DL1, ul2)
	if err != nil {
		return nil, err
	}
	il1, err := New(cfg.IL1, ul2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{IL1: il1, DL1: dl1, UL2: ul2, Mem: mem}, nil
}

// Reset returns every level to its cold just-built state (all lines
// invalid, all counters zero) without reallocating, so one hierarchy can
// serve many runs of the same configuration.
func (h *Hierarchy) Reset() {
	h.IL1.Reset()
	h.DL1.Reset()
	h.UL2.Reset()
	h.Mem.Reset()
}
