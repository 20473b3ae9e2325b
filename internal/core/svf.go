// Package core implements the paper's primary contribution: the Stack
// Value File (SVF), a non-architected register file holding the memory
// words near the top of stack (§3).
//
// The SVF is a circular buffer of 64-bit entries indexed by the low-order
// address bits, covering the contiguous address window [SP, SP+N*8). Each
// entry carries a valid and a dirty bit (§3.3). Stack-pointer adjustments
// move the window and exploit the stack's liveness semantics:
//
//   - Allocation ($sp decreases): words entering the window at the new TOS
//     are newly allocated, hence dead — they are invalidated, never fetched
//     (a stack cache must read the rest of the line on a write miss).
//   - Deallocation ($sp increases): words leaving the window at the TOS are
//     semantically dead — dirty or not, they are killed, never written back
//     (a stack cache must write back the dirty line).
//   - Window slides push live deep words out of the far end: only those
//     that are valid and dirty are written back, one 64-bit word at a time.
//
// Loads from invalid entries fetch exactly one quadword on demand from the
// first-level data cache. This per-word, demand-only traffic is why Table 3
// shows the SVF moving orders of magnitude fewer quadwords than a
// same-sized stack cache.
package core

import (
	"fmt"

	"svf/internal/cache"
	"svf/internal/isa"
)

// Config parameterises an SVF instance.
type Config struct {
	// SizeBytes is the capacity; must be a power-of-two multiple of 8.
	// The paper's default is 8KB (1024 entries × 8 bytes).
	SizeBytes int
	// Ports is the number of SVF accesses per cycle; 0 means unlimited.
	// Port arbitration is performed by the pipeline.
	Ports int
	// HitLatency is the access latency of a morphed (register-move)
	// reference in cycles. Defaults to 1: SVF entries are renamed through
	// the register alias table and behave like physical registers.
	HitLatency int
	// RerouteLatency is the extra latency for references that are not
	// $sp-relative and reach the SVF only after address generation and a
	// bounds check (§3.2). Defaults to 2.
	RerouteLatency int
	// Infinite makes the SVF unbounded (Figure 5's limit study): every
	// stack reference hits, and no fill or spill traffic is generated.
	Infinite bool

	// StatusGranularityWords sets how many 64-bit words share one
	// valid/dirty bit pair (default 1, the paper's design point; §3.3
	// predicts more traffic at coarser granularity). Must be a power of
	// two dividing the entry count. Ablation knob.
	StatusGranularityWords int

	// DisableKills turns off the allocation/deallocation liveness
	// optimisations: the SVF then behaves like a plain windowed cache —
	// deallocated dirty words are written back and stores to invalid
	// entries fetch the word first. Ablation knob quantifying §5.3.2's
	// semantic advantage.
	DisableKills bool

	// AdaptiveDisable enables the §3.3 monitor with default parameters:
	// the SVF turns itself off for a period when an epoch of accesses
	// generates excessive L1 traffic. Use EnableAdaptiveDisable for
	// custom parameters.
	AdaptiveDisable bool

	// Banks interleaves the SVF into this many single-ported banks
	// (§7: "The SVF is direct-mapped, can be single-ported, and can
	// easily be banked"). Zero keeps the flat Ports model. With banking,
	// each bank services one access per cycle; accesses to the same bank
	// in one cycle conflict. Must be a power of two.
	Banks int
}

func (c *Config) fillDefaults() {
	if c.HitLatency == 0 {
		c.HitLatency = 1
	}
	if c.RerouteLatency == 0 {
		c.RerouteLatency = 2
	}
	if c.StatusGranularityWords == 0 {
		c.StatusGranularityWords = 1
	}
}

// Stats are the SVF's event counters.
type Stats struct {
	// MorphedLoads/MorphedStores count $sp-relative references morphed
	// into register moves in the front end (Figure 8's "fast" refs).
	MorphedLoads, MorphedStores uint64
	// ReroutedLoads/ReroutedStores count non-$sp references redirected
	// into the SVF after address resolution (Figure 8's rerouted refs).
	ReroutedLoads, ReroutedStores uint64
	// Fills counts demand fills of invalid entries (loads of words whose
	// value still lives in memory).
	Fills uint64
	// Spills counts dirty words written back when the window slides over
	// live data.
	Spills uint64
	// AllocKills counts words invalidated on stack growth (writes will
	// follow; no fetch needed).
	AllocKills uint64
	// DeallocKills counts dirty words killed on stack shrink (dead data;
	// writeback avoided).
	DeallocKills uint64
	// SubWordRMWs counts partial-word stores to invalid entries that had
	// to read-modify-write the containing word — the x86-extension cost
	// the paper's §7 anticipates.
	SubWordRMWs uint64
	// DisablePeriods counts times the adaptive mechanism switched the
	// SVF off after localised poor performance (§3.3).
	DisablePeriods uint64
	// QuadWordsIn / QuadWordsOut are the Table 3 traffic counters: words
	// read from / written to the L1 (excluding context-switch flushes).
	QuadWordsIn, QuadWordsOut uint64
	// CtxSwitches and CtxBytes record context-switch flushes (Table 4).
	CtxSwitches, CtxBytes uint64
}

// MorphedRefs returns the total number of fast (front-end-morphed)
// references.
func (s Stats) MorphedRefs() uint64 { return s.MorphedLoads + s.MorphedStores }

// ReroutedRefs returns the total number of rerouted references.
func (s Stats) ReroutedRefs() uint64 { return s.ReroutedLoads + s.ReroutedStores }

// SVF is one stack value file instance.
type SVF struct {
	cfg     Config
	entries int
	mask    uint64
	valid   []bool
	dirty   []bool
	// sp is the current (decode-tracked) top of stack; the window covers
	// [sp, sp + entries*8).
	sp      uint64
	spKnown bool
	// l1 is the spill/fill target (the first-level data cache).
	l1    cache.Level
	stats Stats
	// adapt is the §3.3 dynamic-disable monitor (off by default).
	adapt adaptiveState
}

// New builds an SVF that spills to and fills from l1.
func New(cfg Config, l1 cache.Level) (*SVF, error) {
	cfg.fillDefaults()
	if !cfg.Infinite {
		if cfg.SizeBytes <= 0 || cfg.SizeBytes%isa.WordSize != 0 {
			return nil, fmt.Errorf("core: SVF size %d not a positive multiple of %d", cfg.SizeBytes, isa.WordSize)
		}
		n := cfg.SizeBytes / isa.WordSize
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("core: SVF entry count %d not a power of two", n)
		}
	}
	if l1 == nil && !cfg.Infinite {
		return nil, fmt.Errorf("core: nil L1 spill target")
	}
	if g := cfg.StatusGranularityWords; !cfg.Infinite {
		if g < 1 || g&(g-1) != 0 {
			return nil, fmt.Errorf("core: status granularity %d not a power of two", g)
		}
		if n := cfg.SizeBytes / isa.WordSize; g > n {
			return nil, fmt.Errorf("core: status granularity %d exceeds %d entries", g, n)
		}
	}
	if b := cfg.Banks; b < 0 || (b > 0 && b&(b-1) != 0) || b > 64 {
		return nil, fmt.Errorf("core: bank count %d not a power of two in [0, 64]", cfg.Banks)
	}
	s := &SVF{cfg: cfg, l1: l1}
	if !cfg.Infinite {
		s.entries = cfg.SizeBytes / isa.WordSize
		s.mask = uint64(s.entries - 1)
		s.valid = make([]bool, s.entries)
		s.dirty = make([]bool, s.entries)
	}
	if cfg.AdaptiveDisable {
		s.EnableAdaptiveDisable(0, 0, 0)
	}
	return s, nil
}

// Config returns the configuration with defaults filled.
func (s *SVF) Config() Config { return s.cfg }

// Stats returns a copy of the counters.
func (s *SVF) Stats() Stats { return s.stats }

// Entries returns the number of 64-bit entries (0 when infinite).
func (s *SVF) Entries() int { return s.entries }

// index maps a word-aligned address to its circular entry.
func (s *SVF) index(addr uint64) uint64 { return (addr / isa.WordSize) & s.mask }

// Bank returns the bank an address maps to (sequential word interleaving),
// or 0 when banking is off.
func (s *SVF) Bank(addr uint64) int {
	if s.cfg.Banks == 0 {
		return 0
	}
	return int((addr / isa.WordSize) & uint64(s.cfg.Banks-1))
}

// Contains reports whether addr falls inside the SVF's current window.
// References outside the window are ordinary cache references. While the
// adaptive monitor has the SVF disabled, nothing is contained.
func (s *SVF) Contains(addr uint64) bool {
	if s.adapt.off {
		s.adaptTick()
		return false
	}
	if s.cfg.Infinite {
		return true
	}
	if !s.spKnown {
		return false
	}
	return addr >= s.sp && addr < s.sp+uint64(s.entries)*isa.WordSize
}

// NotifySPUpdate tracks a stack-pointer change from oldSP to newSP, sliding
// the window and applying the liveness semantics. It must be called in
// program order (the decode stage's speculative $sp tracking).
func (s *SVF) NotifySPUpdate(oldSP, newSP uint64) {
	if s.cfg.Infinite {
		s.sp = newSP
		s.spKnown = true
		return
	}
	if !s.spKnown {
		s.sp = newSP
		s.spKnown = true
		return
	}
	if oldSP != s.sp {
		// Callers must keep the SVF's $sp shadow coherent.
		panic(fmt.Sprintf("core: SP update from %#x but SVF window is at %#x", oldSP, s.sp))
	}
	winBytes := uint64(s.entries) * isa.WordSize
	switch {
	case newSP < oldSP:
		// Allocation: stack grows down by delta bytes.
		delta := oldSP - newSP
		if delta >= winBytes {
			// The whole window slides past itself: spill everything
			// live, then invalidate. Every slot of the new window covers
			// newly allocated (dead-on-arrival) words, so the slide
			// alloc-kills the full window — same per-word accounting as
			// the incremental path below.
			s.spillAll(oldSP)
			s.invalidateAll()
			s.stats.AllocKills += uint64(s.entries)
		} else {
			// Words leaving at the deep end ([newSP+W, oldSP+W)) are
			// live: spill if dirty. Their circular slots are reused by
			// the newly allocated words ([newSP, oldSP)), which are
			// dead on arrival: invalid, no fetch.
			for a := newSP + winBytes; a < oldSP+winBytes; a += isa.WordSize {
				i := s.index(a)
				if s.valid[i] && s.dirty[i] {
					s.spill(a)
				}
				s.valid[i] = false
				s.dirty[i] = false
				s.stats.AllocKills++
			}
		}
	case newSP > oldSP:
		// Deallocation: words at the TOS ([oldSP, newSP)) die; words
		// entering at the deep end are old memory contents, fetched on
		// demand. Both map to the same circular slots.
		delta := newSP - oldSP
		if delta >= winBytes {
			if s.cfg.DisableKills {
				// No liveness knowledge: dirty words are written back,
				// exactly as the incremental path does — and therefore
				// NOT counted as dealloc kills (a kill is a writeback
				// *avoided*; counting spilled words too double-reports
				// the §5.3.2 liveness win on every full-window pop).
				s.spillAll(oldSP)
				s.invalidateAll()
			} else {
				s.invalidateAllCounting(&s.stats.DeallocKills)
			}
		} else {
			for a := oldSP; a < newSP; a += isa.WordSize {
				i := s.index(a)
				if s.valid[i] && s.dirty[i] {
					if s.cfg.DisableKills {
						// No liveness knowledge: write the word back
						// as a cache would.
						s.spill(a)
					} else {
						s.stats.DeallocKills++
					}
				}
				s.valid[i] = false
				s.dirty[i] = false
			}
		}
	}
	s.sp = newSP
}

// spill writes one live dirty word (whose current mapping is addr in the
// old window) back to the L1.
func (s *SVF) spill(addr uint64) {
	s.stats.Spills++
	s.stats.QuadWordsOut++
	if s.adapt.enabled && !s.adapt.off {
		s.adapt.traffic++
	}
	s.l1.Access(addr, true)
}

// spillAll writes back every valid dirty word of the window anchored at sp.
func (s *SVF) spillAll(sp uint64) {
	winBytes := uint64(s.entries) * isa.WordSize
	for a := sp; a < sp+winBytes; a += isa.WordSize {
		i := s.index(a)
		if s.valid[i] && s.dirty[i] {
			s.spill(a)
		}
	}
}

func (s *SVF) invalidateAll() {
	for i := range s.valid {
		s.valid[i] = false
		s.dirty[i] = false
	}
}

func (s *SVF) invalidateAllCounting(killCounter *uint64) {
	for i := range s.valid {
		if s.valid[i] && s.dirty[i] {
			*killCounter++
		}
		s.valid[i] = false
		s.dirty[i] = false
	}
}

// Access services one full-word reference to an address inside the window
// (the caller must have checked Contains). rerouted marks references that
// were not $sp-relative and reached the SVF after address generation. It
// returns the access latency in cycles, including any demand-fill delay.
func (s *SVF) Access(addr uint64, write, rerouted bool) int {
	return s.AccessSized(addr, isa.WordSize, write, rerouted)
}

// AccessSized is Access for a reference of size bytes (1, 2, 4 or 8; any
// other size is a full word) — the partial-word references of the x86
// extension the paper names as its next step (§7).
//
// Status bits are per 64-bit word (§3.3), so a sub-word store to an invalid
// entry cannot just mark it valid: the word's other bytes would be garbage.
// It first fetches the word from the L1 and merges — a read-modify-write
// that erodes the allocation-kill advantage, as the paper anticipates for
// x86-style code. Sub-word loads behave like word loads (a fill brings the
// whole word).
func (s *SVF) AccessSized(addr uint64, size int, write, rerouted bool) int {
	lat := s.cfg.HitLatency
	if rerouted {
		lat += s.cfg.RerouteLatency
		if write {
			s.stats.ReroutedStores++
		} else {
			s.stats.ReroutedLoads++
		}
	} else {
		if write {
			s.stats.MorphedStores++
		} else {
			s.stats.MorphedLoads++
		}
	}
	if s.cfg.Infinite {
		return lat
	}
	i := s.index(addr)
	if write {
		traffic := uint64(0)
		partial := size > 0 && size < isa.WordSize
		if (partial || s.cfg.DisableKills) && !s.valid[i] {
			// A partial store read-modify-writes the word. Without
			// allocation kills the structure cannot know the word is
			// dead, so even a full-word write miss fetches it first,
			// exactly like a cache's write-allocate fill.
			if partial {
				s.stats.SubWordRMWs++
			}
			s.stats.Fills++
			s.stats.QuadWordsIn++
			lat += s.l1.Access(addr&^(isa.WordSize-1), false)
			traffic = 1
		}
		s.markValidDirty(addr)
		s.adaptNote(traffic)
		return lat
	}
	if !s.valid[i] {
		// Demand fill: the granule's value still lives in memory.
		lat += s.fillGranule(addr)
		s.adaptNote(1)
	} else {
		s.adaptNote(0)
	}
	return lat
}

// markValidDirty sets the valid and dirty bits for addr's whole status
// granule (coarser granularity cannot track sub-granule state).
func (s *SVF) markValidDirty(addr uint64) {
	g := uint64(s.cfg.StatusGranularityWords)
	start := (addr / isa.WordSize) &^ (g - 1)
	for w := start; w < start+g; w++ {
		i := w & s.mask
		s.valid[i] = true
	}
	s.dirty[s.index(addr)] = true
	if g > 1 {
		// Coarse status bits: the dirty bit covers the granule.
		for w := start; w < start+g; w++ {
			s.dirty[w&s.mask] = true
		}
	}
}

// fillGranule fetches addr's status granule from the L1 and returns the
// added latency.
func (s *SVF) fillGranule(addr uint64) int {
	g := uint64(s.cfg.StatusGranularityWords)
	start := (addr / isa.WordSize) &^ (g - 1)
	lat := 0
	for w := start; w < start+g; w++ {
		i := w & s.mask
		if s.valid[i] {
			continue
		}
		s.stats.Fills++
		s.stats.QuadWordsIn++
		l := s.l1.Access(w*isa.WordSize, false)
		if lat == 0 {
			lat = l
		}
		s.valid[i] = true
	}
	return lat
}

// ContextSwitch flushes the SVF for a process switch: only valid dirty
// words are written back (per-word granularity — the stack cache must write
// whole lines), then everything is invalidated.
func (s *SVF) ContextSwitch() {
	s.stats.CtxSwitches++
	if s.cfg.Infinite {
		return
	}
	if s.spKnown {
		// Flush traffic is accounted separately (Table 4), not as
		// steady-state Table 3 traffic.
		winBytes := uint64(s.entries) * isa.WordSize
		for a := s.sp; a < s.sp+winBytes; a += isa.WordSize {
			i := s.index(a)
			if s.valid[i] && s.dirty[i] {
				s.stats.CtxBytes += isa.WordSize
				s.l1.Access(a, true)
			}
		}
	}
	s.invalidateAll()
}

// CtxSwitchBytes returns the average bytes written back per context switch
// (Table 4).
func (s *SVF) CtxSwitchBytes() uint64 {
	if s.stats.CtxSwitches == 0 {
		return 0
	}
	return s.stats.CtxBytes / s.stats.CtxSwitches
}
