package pipeline

import (
	"fmt"

	"svf/internal/core"
	"svf/internal/isa"
	"svf/internal/rse"
	"svf/internal/stackcache"
)

// StackStructs is a run's stack side, and the one path to it: the timing
// pipeline's dispatch stage and sim's functional traffic loop both drive
// it, in program order, through the same methods. It owns the decode-stage
// $sp shadow (AnchorSP, AdjustSP), fans $sp updates and context switches
// out to the policy's structure, decides which structure serves a
// reference (Route), performs the functional access of a reference routed
// to a stack structure (Access), and harvests the structure's traffic
// (Traffic). What is left to the pipeline is timing: ports, latencies,
// renaming, forwarding and the RSE's dispatch stall.
//
// The structures and the shadow hold one run's state, so build a fresh
// StackStructs for every run.
type StackStructs struct {
	// Policy selects the routing.
	Policy StackPolicy
	// SVF is used when Policy == PolicySVF.
	SVF *core.SVF
	// SC is used when Policy == PolicyStackCache.
	SC *stackcache.StackCache
	// RSE is used when Policy == PolicyRSE.
	RSE *rse.RSE
	// Ports is the stack structure's port count (0 = unlimited) — the
	// "S" in the paper's (R+S) configuration notation.
	Ports int

	// sp is the decode stage's speculative $sp copy, valid once spKnown.
	sp      uint64
	spKnown bool
}

// Route says which structure serves a memory reference.
type Route uint8

const (
	// RouteNone marks an instruction that is not a memory reference.
	RouteNone  Route = iota
	RouteDL1         // first-level data cache
	RouteStack       // decoupled stack cache
	RouteSVF         // stack value file
	RouteRSE         // register stack engine
)

// AnchorSP anchors the $sp shadow at the first $sp-relative reference's
// resolved address and checks every later one against it. A shadow that
// disagrees with the trace — a corrupted stream or a tracking bug — is
// returned as an error rather than panicking, so the failure is reportable
// even outside a recover net.
func (s *StackStructs) AnchorSP(inst *isa.Inst) error {
	if s.spKnown && s.sp == inst.Addr-uint64(int64(inst.Imm)) {
		return nil // the common case, kept small enough to inline
	}
	return s.anchor(inst)
}

// anchor is AnchorSP's first anchoring or disagreement.
func (s *StackStructs) anchor(inst *isa.Inst) error {
	sp := inst.Addr - uint64(int64(inst.Imm))
	if s.spKnown {
		return fmt.Errorf("pipeline: $sp shadow %#x disagrees with trace (%#x at pc %#x)", s.sp, sp, inst.PC)
	}
	s.sp, s.spKnown = sp, true
	return s.notifySP(sp, inst)
}

// AdjustSP applies an $sp update to the shadow, sliding the SVF window or
// pushing and popping RSE frames. Before the shadow is anchored there is
// nothing to track.
func (s *StackStructs) AdjustSP(inst *isa.Inst) error {
	if !s.spKnown {
		return nil
	}
	old := s.sp
	s.sp = uint64(int64(old) + int64(inst.Imm))
	return s.notifySP(old, inst)
}

// notifySP fans an $sp change from old to the shadow's value out to the
// structures that track it.
func (s *StackStructs) notifySP(old uint64, inst *isa.Inst) error {
	switch s.Policy {
	case PolicySVF:
		s.SVF.NotifySPUpdate(old, s.sp)
	case PolicyRSE:
		if err := s.RSE.NotifySPUpdate(old, s.sp); err != nil {
			return fmt.Errorf("pipeline: at pc %#x: %w", inst.PC, err)
		}
	}
	return nil
}

// ContextSwitch flushes the policy's structure for a process switch.
func (s *StackStructs) ContextSwitch() {
	switch s.Policy {
	case PolicySVF:
		s.SVF.ContextSwitch()
	case PolicyStackCache:
		s.SC.ContextSwitch()
	case PolicyRSE:
		s.RSE.ContextSwitch()
	}
}

// Route decides which structure serves a memory reference; inStack is the
// layout's stack-region test of its address. Asking the SVF's window can
// tick its adaptive monitor, so route each reference exactly once.
func (s *StackStructs) Route(inst *isa.Inst, inStack bool) Route {
	switch s.Policy {
	case PolicySVF:
		if inStack && s.SVF.Contains(inst.Addr) {
			return RouteSVF
		}
	case PolicyStackCache:
		if inStack {
			return RouteStack
		}
	case PolicyRSE:
		// Registers are not memory-addressable: only $sp-relative
		// references to resident frames are served; everything else —
		// pointer-addressed locals, spilled frames — uses the cache.
		if inst.SPRelative() && s.RSE.Resident(inst.Addr) {
			return RouteRSE
		}
	}
	return RouteDL1
}

// Access performs the functional access of a reference that Route sent to
// a stack structure and returns its latency in cycles. rerouted marks an
// SVF reference that arrived after address generation instead of being
// morphed in decode. The reference's size counts: a partial-word store to
// an invalid SVF entry read-modify-writes the word.
func (s *StackStructs) Access(rt Route, inst *isa.Inst, rerouted bool) int {
	write := inst.Kind == isa.KindStore
	switch rt {
	case RouteSVF:
		return s.SVF.AccessSized(inst.Addr, int(inst.Size), write, rerouted)
	case RouteStack:
		return s.SC.Access(inst.Addr, write)
	case RouteRSE:
		// Route has just checked residency, so the engine serves it.
		lat, _ := s.RSE.Access(inst.Addr, write)
		return lat
	}
	panic(fmt.Sprintf("pipeline: stack access on route %d", rt))
}

// Traffic returns the structure's Table 3 traffic — quadwords filled in
// and written back out, context-switch flushes excluded — and its Table 4
// average bytes written back per context switch.
func (s *StackStructs) Traffic() (qwIn, qwOut, ctxBytes uint64) {
	switch s.Policy {
	case PolicySVF:
		st := s.SVF.Stats()
		return st.QuadWordsIn, st.QuadWordsOut, s.SVF.CtxSwitchBytes()
	case PolicyStackCache:
		return s.SC.QuadWordsIn(), s.SC.QuadWordsOut(), s.SC.CtxSwitchBytes()
	case PolicyRSE:
		st := s.RSE.Stats()
		return st.QuadWordsIn, st.QuadWordsOut, s.RSE.CtxSwitchBytes()
	}
	return 0, 0, 0
}
