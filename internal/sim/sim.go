// Package sim orchestrates complete simulation runs: it assembles a
// workload generator, memory hierarchy, stack structure, branch predictor
// and pipeline from a single Options struct, runs the pipeline, and gathers
// every layer's statistics into one Result. The experiments package builds
// each paper figure/table out of these runs.
package sim

import (
	"context"
	"fmt"
	"sync"

	"svf/internal/bpred"
	"svf/internal/cache"
	"svf/internal/core"
	"svf/internal/faultinject"
	"svf/internal/isa"
	"svf/internal/pipeline"
	"svf/internal/regions"
	"svf/internal/rse"
	"svf/internal/stackcache"
	"svf/internal/synth"
	"svf/internal/telemetry"
	"svf/internal/trace"
)

// PredictorKind selects the branch predictor.
type PredictorKind string

const (
	// PredPerfect is the paper's default front end (§4).
	PredPerfect PredictorKind = "perfect"
	// PredGshare is the realistic predictor of Figure 5's last bars.
	PredGshare PredictorKind = "gshare"
	// PredBimodal is a simpler table predictor.
	PredBimodal PredictorKind = "bimodal"
)

// Options selects one complete machine configuration.
type Options struct {
	// Machine is the core model (Table 2); defaults to SixteenWide.
	Machine pipeline.MachineConfig
	// DL1Ports overrides the machine's DL1 port count when non-zero —
	// the "R" in the paper's (R+S) notation.
	DL1Ports int
	// DL1SizeBytes overrides the DL1 capacity when non-zero (Figure 6
	// doubles it to 128KB).
	DL1SizeBytes int
	// DL1HitLatency overrides the DL1 hit latency when non-zero (the
	// 4-ported baseline of Figure 7 uses 4 cycles).
	DL1HitLatency int

	// Policy selects the stack structure.
	Policy pipeline.StackPolicy
	// StackSizeBytes sizes the SVF or stack cache (default 8KB).
	StackSizeBytes int
	// StackPorts is the stack structure's port count (0 = unlimited) —
	// the "S" in (R+S).
	StackPorts int
	// SVFInfinite selects Figure 5's infinite SVF limit study.
	SVFInfinite bool
	// SVFAdaptiveDisable enables the §3.3 dynamic-disable monitor.
	SVFAdaptiveDisable bool
	// SVFBanks interleaves the SVF into single-ported banks instead of
	// the flat StackPorts model (0 = off).
	SVFBanks int

	// Predictor defaults to PredPerfect.
	Predictor PredictorKind
	// GshareBits sizes the gshare/bimodal table (default 14).
	GshareBits uint

	// MaxInsts bounds the run (default 1e6).
	MaxInsts int
	// CtxSwitchPeriod enables context switching when non-zero (Table 4
	// uses 400000).
	CtxSwitchPeriod uint64

	// FaultPlan, when non-nil and matching the workload, injects the
	// plan's deterministic faults into the run (chaos testing). A pointer
	// keeps Options comparable. Canonical clears it, and RunCache
	// executes matching injected runs outside the cache, so a
	// fault-injected result can never be cached for — or served to — a
	// clean request.
	FaultPlan *faultinject.Plan

	// Probe, when non-nil, attaches pipeline telemetry (occupancy
	// histograms, optional per-stage trace) to the run. Like
	// FaultPlan it is a pointer so Options stays comparable, and Canonical
	// clears it: instrumentation never affects cache keys, fingerprints,
	// or results — golden stats are bit-identical with it on or off. The
	// echoed Result.Opt has it cleared for the same reason.
	Probe *telemetry.Probe
}

func (o *Options) fillDefaults() {
	if o.Machine.Width == 0 {
		o.Machine = pipeline.SixteenWide()
	}
	if o.DL1Ports != 0 {
		o.Machine.DL1Ports = o.DL1Ports
	}
	if o.StackSizeBytes == 0 {
		o.StackSizeBytes = 8 << 10
	}
	if o.Predictor == "" {
		o.Predictor = PredPerfect
	}
	if o.GshareBits == 0 {
		o.GshareBits = 14
	}
	if o.MaxInsts == 0 {
		o.MaxInsts = 1_000_000
	}
}

// Result is everything measured in one run.
type Result struct {
	// Bench is the workload's ID.
	Bench string
	// Opt echoes the options the run used (defaults filled).
	Opt Options
	// Pipe is the pipeline's counters.
	Pipe pipeline.Stats
	// IL1, DL1, UL2 are the cache counters.
	IL1, DL1, UL2 cache.Stats
	// MemAccesses counts main-memory block requests.
	MemAccesses uint64
	// SVF is non-nil for SVF runs.
	SVF *core.Stats
	// SC is non-nil for stack-cache runs.
	SC *cache.Stats
	// RSE is non-nil for register-stack-engine runs.
	RSE *rse.Stats
	// SCCtxBytes / SVFCtxBytes are the per-context-switch writeback
	// averages (Table 4).
	SCCtxBytes, SVFCtxBytes uint64
	// SCQWIn/SCQWOut and SVFQWIn/SVFQWOut are the Table 3 traffic
	// numbers; RSEQWIn/RSEQWOut the register-stack-engine equivalents.
	SCQWIn, SCQWOut   uint64
	SVFQWIn, SVFQWOut uint64
	RSEQWIn, RSEQWOut uint64
	// RSECtxBytes is the per-context-switch spill average for RSE runs.
	RSECtxBytes uint64
}

// IPC returns the run's committed IPC.
func (r *Result) IPC() float64 { return r.Pipe.IPC() }

// Cycles returns the run's cycle count.
func (r *Result) Cycles() uint64 { return r.Pipe.Cycles }

// programCache avoids rebuilding (and recalibrating) the synthetic program
// for a profile on every configuration run. It is keyed by the profile's
// content fingerprint, not its ID: custom and mutated profiles can share an
// ID with a bundled profile, and keying on ID alone would silently hand one
// of them the other's program.
var programCache sync.Map // fingerprint string → *synth.Program

// ProgramFor returns the (cached) built program for a profile.
func ProgramFor(prof *synth.Profile) (*synth.Program, error) {
	fp := prof.Fingerprint()
	if v, ok := programCache.Load(fp); ok {
		return v.(*synth.Program), nil
	}
	prog, err := synth.BuildProgram(prof)
	if err != nil {
		return nil, err
	}
	programCache.Store(fp, prog)
	return prog, nil
}

// Run executes one simulation and returns its Result. It is RunContext
// under context.Background() — use RunContext when the run must honour
// cancellation or a deadline.
func Run(prof *synth.Profile, opt Options) (*Result, error) {
	return RunContext(context.Background(), prof, opt)
}

// RunContext executes one supervised simulation: internal panics and
// pipeline consistency failures come back as a *Fault, and ctx
// cancellation stops the run promptly with ctx.Err().
func RunContext(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error) {
	opt.fillDefaults()
	prog, err := ProgramFor(prof)
	if err != nil {
		return nil, err
	}
	fp := prof.Fingerprint()
	return runStream(ctx, prof.ID(), fp, cachedStream(prog, fp, opt.MaxInsts), opt)
}

// RunStream executes one simulation over an arbitrary instruction stream
// (e.g. a trace recorded with the trace package) under the same
// configuration plumbing — and the same supervision — as RunContext. The
// stream must start at program entry so the $sp shadow can anchor.
func RunStream(ctx context.Context, name string, gen trace.Stream, opt Options) (*Result, error) {
	return runStream(ctx, name, name, gen, opt)
}

// runStream is the shared run body; identity stands in for the profile
// fingerprint in the cell key a fault reports (profile contents for Run,
// the stream name for RunStream).
func runStream(ctx context.Context, name, identity string, gen trace.Stream, opt Options) (*Result, error) {
	opt.fillDefaults()

	hcfg := cache.DefaultHierarchyConfig()
	if opt.DL1SizeBytes != 0 {
		hcfg.DL1.SizeBytes = opt.DL1SizeBytes
	}
	if opt.DL1HitLatency != 0 {
		hcfg.DL1.HitLatency = opt.DL1HitLatency
	}
	hier, err := getHierarchy(hcfg)
	if err != nil {
		return nil, err
	}

	var pred pipeline.Predictor
	switch opt.Predictor {
	case PredPerfect:
		pred = bpred.NewPerfect()
	case PredGshare:
		pred, err = bpred.NewGshare(opt.GshareBits)
	case PredBimodal:
		pred, err = bpred.NewBimodal(opt.GshareBits)
	default:
		return nil, fmt.Errorf("sim: unknown predictor %q", opt.Predictor)
	}
	if err != nil {
		return nil, err
	}

	env := pipeline.Env{
		Machine:         opt.Machine,
		Hier:            hier,
		Pred:            pred,
		Layout:          regions.DefaultLayout(),
		CtxSwitchPeriod: opt.CtxSwitchPeriod,
		Probe:           opt.Probe,
	}
	if opt.FaultPlan.Active() && opt.FaultPlan.Matches(name) {
		gen = opt.FaultPlan.WrapStream(gen)
		env.Inject = opt.FaultPlan
	}
	var svf *core.SVF
	var sc *stackcache.StackCache
	var eng *rse.RSE
	switch opt.Policy {
	case pipeline.PolicySVF:
		svf, err = core.New(core.Config{
			SizeBytes:       opt.StackSizeBytes,
			Ports:           opt.StackPorts,
			Infinite:        opt.SVFInfinite,
			AdaptiveDisable: opt.SVFAdaptiveDisable,
			Banks:           opt.SVFBanks,
		}, hier.DL1)
		if err != nil {
			return nil, err
		}
		env.Stack = pipeline.StackStructs{Policy: opt.Policy, SVF: svf, Ports: opt.StackPorts}
	case pipeline.PolicyStackCache:
		sc, err = stackcache.New(stackcache.Config{
			SizeBytes: opt.StackSizeBytes,
			Ports:     opt.StackPorts,
		}, hier.UL2)
		if err != nil {
			return nil, err
		}
		env.Stack = pipeline.StackStructs{Policy: opt.Policy, SC: sc, Ports: opt.StackPorts}
	case pipeline.PolicyRSE:
		eng, err = rse.New(rse.Config{Regs: opt.StackSizeBytes / isa.WordSize}, hier.DL1)
		if err != nil {
			return nil, err
		}
		env.Stack = pipeline.StackStructs{Policy: opt.Policy, RSE: eng, Ports: opt.StackPorts}
	}

	pl, err := machinePool.Get(env)
	if err != nil {
		return nil, err
	}
	ps, err := runContained(ctx, name, shortKey(runCellKey(identity, Canonical(opt))), pl,
		&trace.Limit{S: gen, N: opt.MaxInsts}, uint64(opt.MaxInsts))
	if err != nil {
		// A faulted or cancelled machine is dropped, not pooled: its
		// state is suspect by definition.
		return nil, err
	}
	machinePool.Put(pl)

	// The echoed options drop the probe: it is instrumentation, not
	// configuration, and must not ride into journal payloads or clones.
	opt.Probe = nil
	res := &Result{
		Bench:       name,
		Opt:         opt,
		Pipe:        ps,
		IL1:         hier.IL1.Stats(),
		DL1:         hier.DL1.Stats(),
		UL2:         hier.UL2.Stats(),
		MemAccesses: hier.Mem.Accesses,
	}
	if svf != nil {
		st := svf.Stats()
		res.SVF = &st
		res.SVFQWIn, res.SVFQWOut = st.QuadWordsIn, st.QuadWordsOut
		res.SVFCtxBytes = svf.CtxSwitchBytes()
	}
	if sc != nil {
		st := sc.Stats()
		res.SC = &st
		res.SCQWIn, res.SCQWOut = sc.QuadWordsIn(), sc.QuadWordsOut()
		res.SCCtxBytes = sc.CtxSwitchBytes()
	}
	if eng != nil {
		st := eng.Stats()
		res.RSE = &st
		res.RSEQWIn, res.RSEQWOut = st.QuadWordsIn, st.QuadWordsOut
		res.RSECtxBytes = eng.CtxSwitchBytes()
	}
	// Every counter is harvested; the hierarchy can serve the next run.
	// (The stack structures hold references into it, but they die here.)
	putHierarchy(hcfg, hier)
	return res, nil
}

// trafficCtxCheckMask is how often (in instructions, power of two minus
// one) the functional traffic loops poll their context.
const trafficCtxCheckMask = 1<<16 - 1

// TrafficOnly runs just the stack structure against the trace (no timing
// pipeline), which is all Table 3 needs; it is an order of magnitude faster
// than a full timing run. It returns quadwords (in, out). Like RunContext,
// it is supervised: panics come back as a *Fault fingerprinted by the
// cell's TrafficCellKey, and cancellation as ctx.Err().
func TrafficOnly(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	cell := TrafficCellKey(prof, policy, sizeBytes, maxInsts, ctxPeriod)
	switch policy {
	case pipeline.PolicySVF:
		return trafficOnlyRun(ctx, prof, cell, &core.Config{SizeBytes: sizeBytes}, stackcache.Config{}, maxInsts, ctxPeriod)
	case pipeline.PolicyStackCache:
		return trafficOnlyRun(ctx, prof, cell, nil, stackcache.Config{SizeBytes: sizeBytes}, maxInsts, ctxPeriod)
	case pipeline.PolicyRSE:
		return trafficOnlyRSE(ctx, prof, cell, rse.Config{Regs: sizeBytes / isa.WordSize}, maxInsts, ctxPeriod)
	default:
		return 0, 0, 0, fmt.Errorf("sim: TrafficOnly needs a stack policy")
	}
}

// trafficFault wraps a traffic-loop failure in the common Fault shape,
// fingerprinted by cell, the traffic cell's key.
func trafficFault(prof *synth.Profile, cell string, committed uint64, panicked any, cause error) *Fault {
	f := &Fault{
		Bench:       prof.ID(),
		Fingerprint: shortKey(cell),
		Committed:   committed,
		Err:         cause,
	}
	if panicked != nil {
		f.Panic = fmt.Sprint(panicked)
		f.Stack = boundedStack()
	}
	return f
}

// trafficOnlyRSE drives just the register stack engine over the trace.
func trafficOnlyRSE(ctx context.Context, prof *synth.Profile, cell string, cfg rse.Config, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	prog, err := ProgramFor(prof)
	if err != nil {
		return 0, 0, 0, err
	}
	gen := cachedStream(prog, prof.Fingerprint(), maxInsts)
	hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		return 0, 0, 0, err
	}
	eng, err := rse.New(cfg, hier.DL1)
	if err != nil {
		return 0, 0, 0, err
	}
	var in isa.Inst
	var committed, nextCtx uint64
	if ctxPeriod > 0 {
		nextCtx = ctxPeriod
	}
	defer func() {
		if r := recover(); r != nil {
			err = trafficFault(prof, cell, committed, r, nil)
		}
	}()
	spKnown := false
	var sp uint64
	for i := 0; i < maxInsts; i++ {
		if i&trafficCtxCheckMask == 0 && ctx.Err() != nil {
			return 0, 0, 0, fmt.Errorf("sim: %s: %w", prof.ID(), ctx.Err())
		}
		if !gen.Next(&in) {
			break
		}
		committed++
		if nextCtx > 0 && committed >= nextCtx {
			eng.ContextSwitch()
			nextCtx += ctxPeriod
		}
		switch {
		case in.Kind == isa.KindSPAdjust:
			if spKnown {
				old := sp
				sp = uint64(int64(sp) + int64(in.Imm))
				if uerr := eng.NotifySPUpdate(old, sp); uerr != nil {
					return 0, 0, 0, trafficFault(prof, cell, committed, nil, uerr)
				}
			}
		case in.IsMem() && in.SPRelative():
			if !spKnown {
				sp = in.Addr - uint64(int64(in.Imm))
				spKnown = true
				if uerr := eng.NotifySPUpdate(sp, sp); uerr != nil {
					return 0, 0, 0, trafficFault(prof, cell, committed, nil, uerr)
				}
			}
			eng.Access(in.Addr, in.Kind == isa.KindStore)
		}
	}
	st := eng.Stats()
	return st.QuadWordsIn, st.QuadWordsOut, eng.CtxSwitchBytes(), nil
}

// TrafficOnlySVF is TrafficOnly with full control over the SVF
// configuration (granularity and liveness-kill ablations). Its faults name
// the SVF traffic cell of the same size.
func TrafficOnlySVF(ctx context.Context, prof *synth.Profile, svfCfg core.Config, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	cell := TrafficCellKey(prof, pipeline.PolicySVF, svfCfg.SizeBytes, maxInsts, ctxPeriod)
	return trafficOnlyRun(ctx, prof, cell, &svfCfg, stackcache.Config{}, maxInsts, ctxPeriod)
}

func trafficOnlyRun(ctx context.Context, prof *synth.Profile, cell string, svfCfg *core.Config, scCfg stackcache.Config, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	prog, err := ProgramFor(prof)
	if err != nil {
		return 0, 0, 0, err
	}
	gen := cachedStream(prog, prof.Fingerprint(), maxInsts)
	hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		return 0, 0, 0, err
	}
	layout := regions.DefaultLayout()

	var svf *core.SVF
	var sc *stackcache.StackCache
	if svfCfg != nil {
		svf, err = core.New(*svfCfg, hier.DL1)
	} else {
		sc, err = stackcache.New(scCfg, hier.UL2)
	}
	if err != nil {
		return 0, 0, 0, err
	}

	var in isa.Inst
	var committed uint64
	var nextCtx uint64
	if ctxPeriod > 0 {
		nextCtx = ctxPeriod
	}
	defer func() {
		if r := recover(); r != nil {
			err = trafficFault(prof, cell, committed, r, nil)
		}
	}()
	spKnown := false
	var sp uint64
	for i := 0; i < maxInsts; i++ {
		if i&trafficCtxCheckMask == 0 && ctx.Err() != nil {
			return 0, 0, 0, fmt.Errorf("sim: %s: %w", prof.ID(), ctx.Err())
		}
		if !gen.Next(&in) {
			break
		}
		committed++
		if nextCtx > 0 && committed >= nextCtx {
			if svf != nil {
				svf.ContextSwitch()
			} else {
				sc.ContextSwitch()
			}
			nextCtx += ctxPeriod
		}
		switch {
		case in.Kind == isa.KindSPAdjust:
			if spKnown {
				old := sp
				sp = uint64(int64(sp) + int64(in.Imm))
				if svf != nil {
					svf.NotifySPUpdate(old, sp)
				}
			}
		case in.IsMem():
			if in.SPRelative() && !spKnown {
				sp = in.Addr - uint64(int64(in.Imm))
				spKnown = true
				if svf != nil {
					svf.NotifySPUpdate(sp, sp)
				}
			}
			if !layout.InStack(in.Addr) {
				continue
			}
			isStore := in.Kind == isa.KindStore
			if svf != nil {
				if svf.Contains(in.Addr) {
					svf.Access(in.Addr, isStore, !in.SPRelative())
				}
				// Out-of-window stack refs go to the DL1, not the SVF.
			} else {
				sc.Access(in.Addr, isStore)
			}
		}
	}
	if svf != nil {
		st := svf.Stats()
		return st.QuadWordsIn, st.QuadWordsOut, svf.CtxSwitchBytes(), nil
	}
	return sc.QuadWordsIn(), sc.QuadWordsOut(), sc.CtxSwitchBytes(), nil
}
