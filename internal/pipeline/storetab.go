package pipeline

// storeTab is a fixed-size open-addressed hash table mapping addresses to
// the youngest in-flight store in the LSQ (an lsqRef). It replaces a Go
// map on the dispatch/commit hot path: at most LSQSize keys are ever live,
// so the table is sized at four times the LSQ ring and probes stay short.
// Deletion uses backward-shift compaction, so there are no tombstones and
// lookups always terminate at the first empty slot.
type storeTab struct {
	slots []storeSlot
	mask  int
	shift uint
}

// storeSlot is one table slot; idx < 0 marks it empty.
type storeSlot struct {
	addr uint64
	idx  int32
	seq  uint64
}

// storeTabLen is the table size for an LSQ capacity: four times the ring,
// floor 16, so probes stay short.
func storeTabLen(lsqSize int) int {
	n := 4 * ceilPow2(lsqSize)
	if n < 16 {
		n = 16
	}
	return n
}

func newStoreTab(lsqSize int) *storeTab {
	n := storeTabLen(lsqSize)
	t := &storeTab{slots: make([]storeSlot, n), mask: n - 1}
	for i := range t.slots {
		t.slots[i].idx = -1
	}
	// home() keeps the high product bits, which Fibonacci hashing mixes
	// best; shift selects log2(n) of them.
	for 1<<t.shift != n {
		t.shift++
	}
	return t
}

// fits reports whether the table is already sized for lsqSize, so Reset
// can recycle it.
func (t *storeTab) fits(lsqSize int) bool {
	return len(t.slots) == storeTabLen(lsqSize)
}

// reset empties the table in place.
func (t *storeTab) reset() {
	for i := range t.slots {
		t.slots[i].idx = -1
	}
}

// home returns addr's preferred slot.
func (t *storeTab) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> (64 - t.shift))
}

// get returns the youngest-store ref for addr.
func (t *storeTab) get(addr uint64) (lsqRef, bool) {
	for i := t.home(addr); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.idx < 0 {
			return lsqRef{}, false
		}
		if s.addr == addr {
			return lsqRef{idx: s.idx, seq: s.seq}, true
		}
	}
}

// putGet records ref as the youngest store for addr and returns the ref it
// supersedes, if any — the store-dispatch get+put pair in one probe chain.
func (t *storeTab) putGet(addr uint64, ref lsqRef) (lsqRef, bool) {
	for i := t.home(addr); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.idx < 0 {
			s.addr, s.idx, s.seq = addr, ref.idx, ref.seq
			return lsqRef{}, false
		}
		if s.addr == addr {
			prev := lsqRef{idx: s.idx, seq: s.seq}
			s.idx, s.seq = ref.idx, ref.seq
			return prev, true
		}
	}
}

// del removes addr's entry if it still records seq (i.e. the committing
// store is still the youngest to its address), compacting the probe chain
// behind it so no tombstone is left.
func (t *storeTab) del(addr uint64, seq uint64) {
	i := t.home(addr)
	for {
		s := &t.slots[i]
		if s.idx < 0 {
			return
		}
		if s.addr == addr {
			if s.seq != seq {
				return // a younger store superseded this one
			}
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: pull up any later chain member whose home slot
	// precedes the gap, then clear the final hole.
	j := i
	for {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s.idx < 0 {
			break
		}
		if (j-t.home(s.addr))&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i].idx = -1
}
