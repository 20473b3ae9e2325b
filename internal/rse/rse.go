// Package rse models a register stack engine (RSE) in the style of
// SPARC register windows and the IA-64 register stack — the *architectural*
// alternative to the SVF that the paper's related work contrasts against
// (§6: "Register windows or the register stack engine (RSE) are used in
// some of today's high-performance microprocessors to eliminate the
// overhead of procedure calls and returns … This general approach is part
// of the architecture, not just the implementation").
//
// The comparison it enables:
//
//   - Like the SVF, an RSE serves frame-local references at register speed
//     and discards a frame's registers on return (no dead-data
//     writebacks).
//   - Unlike the SVF, overflow and underflow move *whole frames* between
//     the register file and the backing store — there are no per-word
//     valid/dirty bits, so an overflow spills every allocated register of
//     the victim frame and an underflow refills every register of the
//     returning frame, clean or not, referenced or not.
//   - Unlike the SVF, the register stack is architectural state: a context
//     switch must spill every resident allocated register.
//   - Registers are not memory-addressable: pointer-addressed ($fp/$gpr)
//     references cannot be served and always go to the data cache (a real
//     compiler would force such locals to memory).
//
// The model is driven exactly like the SVF: NotifySPUpdate on stack-pointer
// changes (frame pushes and pops), Access for $sp-relative references.
package rse

import (
	"fmt"

	"svf/internal/cache"
	"svf/internal/isa"
)

// Config parameterises the register stack engine.
type Config struct {
	// Regs is the physical register-stack capacity in 64-bit registers
	// (IA-64 provides 96 stacked registers; compare against an SVF of
	// equal bytes: 1024 registers = 8KB).
	Regs int
	// HitLatency is the access latency for resident frames (register
	// speed). Defaults to 1.
	HitLatency int
}

func (c *Config) fillDefaults() {
	if c.HitLatency == 0 {
		c.HitLatency = 1
	}
}

// Stats counts the engine's events.
type Stats struct {
	// RegRefs counts references served at register speed.
	RegRefs uint64
	// MemRefs counts $sp-relative references the engine could not serve
	// (spilled or out-of-model frames).
	MemRefs uint64
	// Overflows and Underflows count whole-frame spill/fill events.
	Overflows, Underflows uint64
	// QuadWordsIn / QuadWordsOut are backing-store traffic, comparable
	// to the SVF's Table 3 counters.
	QuadWordsIn, QuadWordsOut uint64
	// CtxSwitches and CtxBytes record context-switch flushes (every
	// resident allocated register spills — architectural state).
	CtxSwitches, CtxBytes uint64
}

// frame is one activation's register allocation.
type frame struct {
	// base is the frame's lowest stack address ([base, base+words*8)).
	base     uint64
	words    int
	resident bool
}

// RSE is one register stack engine instance.
type RSE struct {
	cfg Config
	l1  cache.Level

	frames        []frame // bottom (oldest) … top (current)
	residentWords int
	sp            uint64
	spKnown       bool

	// pendingPenalty accumulates overflow/underflow service cycles for
	// the pipeline to charge as front-end stall.
	pendingPenalty int

	stats Stats
}

// New builds an RSE spilling to l1.
func New(cfg Config, l1 cache.Level) (*RSE, error) {
	cfg.fillDefaults()
	if cfg.Regs < 8 {
		return nil, fmt.Errorf("rse: %d registers too few (min 8)", cfg.Regs)
	}
	if l1 == nil {
		return nil, fmt.Errorf("rse: nil backing store")
	}
	return &RSE{cfg: cfg, l1: l1}, nil
}

// Stats returns a copy of the counters.
func (r *RSE) Stats() Stats { return r.stats }

// TakePenalty returns and clears the accumulated overflow/underflow stall
// cycles (2 registers move per cycle, the usual RSE bandwidth assumption).
func (r *RSE) TakePenalty() int {
	p := r.pendingPenalty
	r.pendingPenalty = 0
	return p
}

// NotifySPUpdate tracks a stack-pointer change: growth pushes a frame,
// shrinkage pops frames. Must be called in program order; an out-of-order
// update (oldSP disagreeing with the engine's tracked $sp) is reported as
// an error so callers outside a recover net still get a diagnosable
// failure instead of a crash.
func (r *RSE) NotifySPUpdate(oldSP, newSP uint64) error {
	if !r.spKnown {
		r.sp = newSP
		r.spKnown = true
		if oldSP == newSP {
			return nil
		}
		oldSP = newSP // treat the first delta as anchored
	}
	if oldSP != r.sp {
		return fmt.Errorf("rse: SP update from %#x but engine is at %#x", oldSP, r.sp)
	}
	switch {
	case newSP < oldSP:
		words := int((oldSP - newSP) / isa.WordSize)
		r.push(newSP, words)
	case newSP > oldSP:
		r.pop(newSP)
	}
	r.sp = newSP
	return nil
}

// push allocates a frame of the given size, spilling old frames on
// overflow.
func (r *RSE) push(base uint64, words int) {
	r.frames = append(r.frames, frame{base: base, words: words, resident: true})
	r.residentWords += words
	// Overflow: spill the oldest resident frames until the allocation
	// fits. Whole frames move; every register is written to the backing
	// store (no dirty bits).
	for r.residentWords > r.cfg.Regs {
		victim := -1
		for i := 0; i < len(r.frames)-1; i++ {
			if r.frames[i].resident {
				victim = i
				break
			}
		}
		if victim < 0 {
			// Only the just-pushed frame is resident and it alone
			// exceeds the register stack: spill it and serve its
			// references from memory.
			if top := &r.frames[len(r.frames)-1]; top.resident {
				r.stats.Overflows++
				r.spillFrame(top)
			}
			break
		}
		r.stats.Overflows++
		r.spillFrame(&r.frames[victim])
	}
}

func (r *RSE) spillFrame(f *frame) {
	for w := 0; w < f.words; w++ {
		r.l1.Access(f.base+uint64(w)*isa.WordSize, true)
	}
	r.stats.QuadWordsOut += uint64(f.words)
	r.pendingPenalty += (f.words + 1) / 2
	f.resident = false
	r.residentWords -= f.words
}

func (r *RSE) fillFrame(f *frame) {
	for w := 0; w < f.words; w++ {
		r.l1.Access(f.base+uint64(w)*isa.WordSize, false)
	}
	r.stats.QuadWordsIn += uint64(f.words)
	r.pendingPenalty += (f.words + 1) / 2
	f.resident = true
	r.residentWords += f.words
}

// pop deallocates frames until the top of stack reaches newSP, then
// refills the (new) current frame if it was spilled — the underflow.
func (r *RSE) pop(newSP uint64) {
	for len(r.frames) > 0 {
		top := &r.frames[len(r.frames)-1]
		topEnd := top.base + uint64(top.words)*isa.WordSize
		if topEnd <= newSP {
			// Whole frame deallocated: registers die (no writeback —
			// the same liveness win the SVF gets on returns).
			if top.resident {
				r.residentWords -= top.words
			}
			r.frames = r.frames[:len(r.frames)-1]
			continue
		}
		if top.base < newSP {
			// Partial deallocation: the low addresses [base, newSP)
			// die; the frame keeps its upper portion [newSP, topEnd).
			keep := int((topEnd - newSP) / isa.WordSize)
			if top.resident {
				r.residentWords -= top.words - keep
			}
			top.words = keep
			top.base = newSP
		}
		break
	}
	// Underflow: the returning-to frame must be resident.
	r.refillTop()
}

// refillTop refills the top frame after an underflow. A frame that alone
// exceeds the register stack is left spilled — it can never be resident, so
// its references are served from memory, mirroring the oversized-push case;
// refilling it anyway would leave residentWords permanently above Regs.
// After a legitimate refill, any older frames still resident are evicted
// oldest-first until the stack fits capacity again.
func (r *RSE) refillTop() {
	n := len(r.frames)
	if n == 0 {
		return
	}
	top := &r.frames[n-1]
	if top.resident || top.words > r.cfg.Regs {
		return
	}
	r.stats.Underflows++
	r.fillFrame(top)
	for r.residentWords > r.cfg.Regs {
		victim := -1
		for i := 0; i < n-1; i++ {
			if r.frames[i].resident {
				victim = i
				break
			}
		}
		if victim < 0 {
			break
		}
		r.stats.Overflows++
		r.spillFrame(&r.frames[victim])
	}
}

// Resident reports whether addr falls in a resident frame (servable at
// register speed).
func (r *RSE) Resident(addr uint64) bool {
	if !r.spKnown {
		return false
	}
	// Search from the top: accesses cluster in the newest frames.
	for i := len(r.frames) - 1; i >= 0; i-- {
		f := &r.frames[i]
		if addr >= f.base && addr < f.base+uint64(f.words)*isa.WordSize {
			return f.resident
		}
	}
	return false
}

// Access services one $sp-relative reference. It returns the latency and
// whether the engine served it (false ⇒ the caller must use the data
// cache).
func (r *RSE) Access(addr uint64, write bool) (int, bool) {
	if !r.Resident(addr) {
		r.stats.MemRefs++
		return 0, false
	}
	r.stats.RegRefs++
	return r.cfg.HitLatency, true
}

// ContextSwitch spills the entire resident register stack: it is
// architectural state, so every allocated register goes to the backing
// store, dirty or not — the contrast with the SVF's per-word dirty flush.
func (r *RSE) ContextSwitch() {
	r.stats.CtxSwitches++
	var flushed uint64
	for i := range r.frames {
		f := &r.frames[i]
		if !f.resident {
			continue
		}
		for w := 0; w < f.words; w++ {
			r.l1.Access(f.base+uint64(w)*isa.WordSize, true)
		}
		flushed += uint64(f.words)
		f.resident = false
	}
	r.residentWords = 0
	r.stats.CtxBytes += flushed * isa.WordSize
	// The flush moves registers at the same 2-per-cycle bandwidth as
	// ordinary spills, so it stalls the front end just like one.
	r.pendingPenalty += int(flushed+1) / 2
	// The process resumes with an underflow of its current frame.
	r.refillTop()
}

// CtxSwitchBytes returns the average bytes spilled per context switch.
func (r *RSE) CtxSwitchBytes() uint64 {
	if r.stats.CtxSwitches == 0 {
		return 0
	}
	return r.stats.CtxBytes / r.stats.CtxSwitches
}
