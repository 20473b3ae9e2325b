// Package pipeline implements the cycle-level out-of-order superscalar
// timing model the evaluation runs on: a SimpleScalar-style core with a
// Register Update Unit (RUU — fused reservation stations and reorder
// buffer), a load/store queue, functional-unit pools, cache/SVF port
// arbitration, and the SVF front-end extensions of §3 (pre-decode
// morphing, speculative $sp tracking, decode interlock, load squashes).
//
// The model is trace-driven on the committed path: workloads resolve
// addresses and branch outcomes functionally (internal/synth), and this
// package decides when everything happens. Branch mispredictions appear as
// front-end bubbles from prediction to resolution, the standard
// trace-driven treatment.
package pipeline

import (
	"fmt"

	"svf/internal/bpred"
	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/faultinject"
	"svf/internal/regions"
	"svf/internal/rse"
	"svf/internal/stackcache"
	"svf/internal/telemetry"
)

// MachineConfig describes one machine model (the paper's Table 2).
type MachineConfig struct {
	// Name labels the configuration in reports.
	Name string
	// Width is the decode = issue = commit width.
	Width int
	// IFQSize is the instruction fetch queue capacity.
	//
	// The IFQ, RUU and LSQ capacities bound occupancy exactly as
	// configured; the backing rings are allocated at the next power of
	// two so index arithmetic masks instead of dividing. Non-power-of-two
	// sizes are therefore legal and model what they say.
	IFQSize int
	// RUUSize is the register update unit capacity.
	RUUSize int
	// LSQSize is the load/store queue capacity.
	LSQSize int
	// IntALU and IntMult are the functional-unit pool sizes.
	IntALU, IntMult int
	// ALULat and MultLat are the functional-unit latencies.
	ALULat, MultLat int
	// DL1Ports is the number of first-level data cache ports.
	DL1Ports int
	// StoreForwardLat is the LSQ store-to-load forwarding latency
	// (3 cycles, matching the paper's Pentium III measurement).
	StoreForwardLat int
	// MispredictPenalty is the front-end refill delay after a resolved
	// branch misprediction.
	MispredictPenalty int
	// SquashPenalty is the pipeline-flush cost of a $gpr-store/$sp-load
	// collision squash (§3.2), charged as a dispatch bubble.
	SquashPenalty int
	// NoAddrCalcOp removes the address-computation dependency of stack
	// references (Figure 6's no_addr_cal_op configuration).
	NoAddrCalcOp bool
	// NoSquash models the SVF-aware code generator that avoids
	// $gpr-store/$sp-load collisions (Figure 7's no_squash bars):
	// collisions become plain dependencies with no flush.
	NoSquash bool
	// NoMorph disables front-end morphing: every SVF reference is
	// treated as rerouted (post-AGEN, bounds-checked, full latency).
	// Ablation knob isolating the value of decode-stage morphing.
	NoMorph bool
}

// Validate checks the configuration.
func (c MachineConfig) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("pipeline %q: width %d < 1", c.Name, c.Width)
	}
	if c.IFQSize < c.Width {
		return fmt.Errorf("pipeline %q: IFQ %d smaller than width %d", c.Name, c.IFQSize, c.Width)
	}
	if c.RUUSize < 2*c.Width {
		return fmt.Errorf("pipeline %q: RUU %d too small for width %d", c.Name, c.RUUSize, c.Width)
	}
	if c.LSQSize < 2 {
		return fmt.Errorf("pipeline %q: LSQ %d too small", c.Name, c.LSQSize)
	}
	if c.IntALU < 1 || c.IntMult < 1 {
		return fmt.Errorf("pipeline %q: empty FU pool", c.Name)
	}
	if c.DL1Ports < 1 {
		return fmt.Errorf("pipeline %q: DL1 ports %d < 1", c.Name, c.DL1Ports)
	}
	if c.ALULat < 1 || c.MultLat < 1 || c.StoreForwardLat < 1 {
		return fmt.Errorf("pipeline %q: non-positive latency", c.Name)
	}
	return nil
}

// Table 2 machine models. The store-forwarding (and DL1 hit) latency of 3
// cycles matches the authors' Pentium III measurement; DL1 ports default to
// 2 (the paper's common case) and are overridden per experiment.

// FourWide returns the 4-wide Table 2 model.
func FourWide() MachineConfig {
	return MachineConfig{
		Name: "4-wide", Width: 4, IFQSize: 16, RUUSize: 64, LSQSize: 32,
		IntALU: 16, IntMult: 4, ALULat: 1, MultLat: 3,
		DL1Ports: 2, StoreForwardLat: 3, MispredictPenalty: 3, SquashPenalty: 4,
	}
}

// EightWide returns the 8-wide Table 2 model.
func EightWide() MachineConfig {
	c := FourWide()
	c.Name = "8-wide"
	c.Width = 8
	c.IFQSize = 32
	c.RUUSize = 128
	c.LSQSize = 64
	return c
}

// SixteenWide returns the 16-wide Table 2 model.
func SixteenWide() MachineConfig {
	c := FourWide()
	c.Name = "16-wide"
	c.Width = 16
	c.IFQSize = 64
	c.RUUSize = 256
	c.LSQSize = 128
	return c
}

// StackPolicy selects how stack references are treated.
type StackPolicy int

const (
	// PolicyNone routes every memory reference to the DL1 (baseline).
	PolicyNone StackPolicy = iota
	// PolicySVF morphs $sp-relative references into SVF register moves
	// and reroutes other in-window stack references into the SVF.
	PolicySVF
	// PolicyStackCache routes all stack-region references to a decoupled
	// stack cache.
	PolicyStackCache
	// PolicyRSE serves $sp-relative references from a register stack
	// engine (SPARC-windows / IA-64 style, §6's architectural
	// alternative); pointer-addressed references go to the data cache.
	PolicyRSE
)

// String names the policy.
func (p StackPolicy) String() string {
	switch p {
	case PolicyNone:
		return "baseline"
	case PolicySVF:
		return "svf"
	case PolicyStackCache:
		return "stackcache"
	case PolicyRSE:
		return "rse"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// StackStructs bundles the stack-side structure for a run.
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
}

// Env is everything a pipeline run needs besides the instruction stream.
type Env struct {
	// Machine is the core model.
	Machine MachineConfig
	// Hier is the DL1/UL2/Mem chain.
	Hier *cache.Hierarchy
	// Stack is the stack-structure configuration.
	Stack StackStructs
	// Pred is the branch direction predictor.
	Pred bpred.Predictor
	// Layout classifies addresses into regions.
	Layout regions.Layout
	// CtxSwitchPeriod, when non-zero, triggers a context switch (stack
	// structure flush) every that many committed instructions (§5.3.3
	// uses 400000).
	CtxSwitchPeriod uint64
	// Inject, when non-nil and active, applies the deterministic fault
	// plan's cycle-level faults (forced panic, stalled completions) to
	// this run. Clean runs leave it nil.
	Inject *faultinject.Plan
	// Probe, when non-nil, receives cycle-sampled occupancy telemetry and
	// (via Probe.Trace) the per-stage instruction timeline. Strictly
	// observational: Stats are bit-identical with or without it, and a nil
	// probe costs the hot loop one pointer check per cycle.
	Probe *telemetry.Probe
}
