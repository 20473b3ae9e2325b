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
// of them the other's program. Builds are single-flight: callers that miss
// together wait for one build instead of each running it.
var programCache sync.Map // fingerprint string → *programBuild

// programBuild is one profile's build, done once done is closed.
type programBuild struct {
	done chan struct{}
	prog *synth.Program
	err  error
}

// ProgramFor returns the (cached) built program for a profile. A build
// that fails or panics leaves no entry behind: its waiters get its error,
// and the next caller builds afresh.
func ProgramFor(prof *synth.Profile) (*synth.Program, error) {
	fp := prof.Fingerprint()
	v, ok := programCache.Load(fp)
	if !ok {
		v, ok = programCache.LoadOrStore(fp, &programBuild{done: make(chan struct{})})
	}
	b := v.(*programBuild)
	if ok {
		<-b.done
		return b.prog, b.err
	}
	defer func() {
		if b.prog == nil {
			if b.err == nil {
				b.err = fmt.Errorf("sim: building the program for %s panicked", prof.ID())
			}
			programCache.CompareAndDelete(fp, b)
		}
		close(b.done)
	}()
	b.prog, b.err = synth.BuildProgram(prof)
	return b.prog, b.err
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
	s, err := cachedStream(ctx, prog, fp, opt.MaxInsts)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", prof.ID(), err)
	}
	return runStream(ctx, prof.ID(), fp, s, opt)
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

	var pred bpred.Predictor
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
	env.Stack, err = newStack(opt.Policy, core.Config{
		SizeBytes:       opt.StackSizeBytes,
		Ports:           opt.StackPorts,
		Infinite:        opt.SVFInfinite,
		AdaptiveDisable: opt.SVFAdaptiveDisable,
		Banks:           opt.SVFBanks,
	}, hier)
	if err != nil {
		return nil, err
	}

	pl, err := machinePool.Get(env)
	if err != nil {
		return nil, err
	}
	ps, err := runContained(ctx, name, shortKey(runCellKey(identity, Canonical(opt))), pl, gen, uint64(opt.MaxInsts))
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
	res.setStack(&env.Stack)
	// Every counter is harvested; the hierarchy can serve the next run.
	// (The stack structures hold references into it, but they die here.)
	putHierarchy(hcfg, hier)
	return res, nil
}

// newStack builds the stack side of one run, timed or traffic-only: the
// structure policy selects, spilling into hier, behind a fresh $sp
// shadow. svf configures the SVF; its SizeBytes also sizes the stack
// cache and the RSE, and its Ports is the structure's port count.
func newStack(policy pipeline.StackPolicy, svf core.Config, hier *cache.Hierarchy) (pipeline.StackStructs, error) {
	st := pipeline.StackStructs{Policy: policy, Ports: svf.Ports}
	var err error
	switch policy {
	case pipeline.PolicyNone:
		// The baseline routes everything to the DL1.
	case pipeline.PolicySVF:
		st.SVF, err = core.New(svf, hier.DL1)
	case pipeline.PolicyStackCache:
		st.SC, err = stackcache.New(stackcache.Config{SizeBytes: svf.SizeBytes, Ports: svf.Ports}, hier.UL2)
	case pipeline.PolicyRSE:
		st.RSE, err = rse.New(rse.Config{Regs: svf.SizeBytes / isa.WordSize}, hier.DL1)
	default:
		err = fmt.Errorf("sim: unknown stack policy %v", policy)
	}
	return st, err
}

// setStack harvests the stack side's counters into the policy's fields.
func (r *Result) setStack(st *pipeline.StackStructs) {
	in, out, ctxBytes := st.Traffic()
	switch st.Policy {
	case pipeline.PolicySVF:
		s := st.SVF.Stats()
		r.SVF, r.SVFQWIn, r.SVFQWOut, r.SVFCtxBytes = &s, in, out, ctxBytes
	case pipeline.PolicyStackCache:
		s := st.SC.Stats()
		r.SC, r.SCQWIn, r.SCQWOut, r.SCCtxBytes = &s, in, out, ctxBytes
	case pipeline.PolicyRSE:
		s := st.RSE.Stats()
		r.RSE, r.RSEQWIn, r.RSEQWOut, r.RSECtxBytes = &s, in, out, ctxBytes
	}
}

// trafficCtxCheckMask is how often (in instructions, power of two minus
// one) the functional traffic loop polls its context.
const trafficCtxCheckMask = 1<<16 - 1

// TrafficOnly runs just the stack structure against the trace (no timing
// pipeline), which is all Table 3 needs; it is an order of magnitude faster
// than a full timing run. It returns quadwords (in, out). Like RunContext,
// it is supervised: panics come back as a *Fault fingerprinted by the
// cell's TrafficCellKey, and cancellation as ctx.Err().
func TrafficOnly(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	if policy == pipeline.PolicyNone {
		return 0, 0, 0, fmt.Errorf("sim: TrafficOnly needs a stack policy")
	}
	return trafficLoop(ctx, prof, policy, core.Config{SizeBytes: sizeBytes}, maxInsts, ctxPeriod)
}

// TrafficOnlySVF is TrafficOnly with full control over the SVF
// configuration (granularity and liveness-kill ablations). Its faults name
// the SVF traffic cell of the same size.
func TrafficOnlySVF(ctx context.Context, prof *synth.Profile, svfCfg core.Config, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	return trafficLoop(ctx, prof, pipeline.PolicySVF, svfCfg, maxInsts, ctxPeriod)
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

// trafficLoop is the functional traffic loop: it drives the stack side
// through the same $sp shadow, context switches, routing and functional
// access as the pipeline's dispatch and commit stages, in program order,
// with no timing. Only references routed to the stack structure touch the
// hierarchy, and nothing is forwarded from an LSQ, so the traffic depends
// on the trace and the structure alone. Faults name the policy's traffic
// cell of svfCfg's size.
func trafficLoop(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, svfCfg core.Config, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	cell := TrafficCellKey(prof, policy, svfCfg.SizeBytes, maxInsts, ctxPeriod)
	prog, err := ProgramFor(prof)
	if err != nil {
		return 0, 0, 0, err
	}
	gen, err := cachedStream(ctx, prog, prof.Fingerprint(), maxInsts)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sim: %s: %w", prof.ID(), err)
	}
	hcfg := cache.DefaultHierarchyConfig()
	hier, err := getHierarchy(hcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := newStack(policy, svfCfg, hier)
	if err != nil {
		return 0, 0, 0, err
	}
	layout := regions.DefaultLayout()

	var in isa.Inst
	var committed uint64
	nextCtx := ctxPeriod
	defer func() {
		if r := recover(); r != nil {
			err = trafficFault(prof, cell, committed, r, nil)
		}
	}()
	for i := 0; i < maxInsts; i++ {
		if i&trafficCtxCheckMask == 0 && ctx.Err() != nil {
			return 0, 0, 0, fmt.Errorf("sim: %s: %w", prof.ID(), ctx.Err())
		}
		if !gen.Next(&in) {
			break
		}
		committed++
		if nextCtx > 0 && committed >= nextCtx {
			st.ContextSwitch()
			nextCtx += ctxPeriod
		}
		switch {
		case in.Kind == isa.KindSPAdjust:
			if serr := st.AdjustSP(&in); serr != nil {
				return 0, 0, 0, trafficFault(prof, cell, committed, nil, serr)
			}
		case in.IsMem():
			if in.SPRelative() {
				if serr := st.AnchorSP(&in); serr != nil {
					return 0, 0, 0, trafficFault(prof, cell, committed, nil, serr)
				}
			}
			if rt := st.Route(&in, layout.InStack(in.Addr)); rt != pipeline.RouteDL1 {
				st.Access(rt, &in, !in.SPRelative())
			}
		}
	}
	qwIn, qwOut, ctxBytes = st.Traffic()
	// Only a clean run's hierarchy is pooled; a faulted or cancelled one
	// is dropped, as runStream drops its machine.
	putHierarchy(hcfg, hier)
	return qwIn, qwOut, ctxBytes, nil
}
