// Package svf is the public API of the Stack Value File reproduction: a
// cycle-level out-of-order processor simulator with a Stack Value File
// (SVF) implementation, a decoupled stack cache baseline, synthetic
// SPECint2000-like workloads, and the harnesses that regenerate every
// table and figure of
//
//	"Stack Value File: Custom Microarchitecture for the Stack",
//	Lee, Smelyanskiy, Newburn, Tyson — HPCA 2001.
//
// The three layers of the API:
//
//   - Workloads: Benchmarks, BenchmarkInputs, ByName and the Profile type
//     describe synthetic programs calibrated to the paper's stack
//     characteristics; Characterize measures them (Figures 1-3).
//   - Single runs: Run simulates one workload on one machine
//     configuration (Options selects width, ports, stack policy,
//     predictor) and returns every collected statistic.
//   - Experiments: Fig1 … Fig9, Table3, Table4 regenerate the paper's
//     evaluation wholesale.
//
// A minimal use:
//
//	base, _ := svf.Run(svf.ByName("186.crafty"), svf.Options{MaxInsts: 1e6})
//	fast, _ := svf.Run(svf.ByName("186.crafty"), svf.Options{
//		Policy: svf.PolicySVF, StackPorts: 2, MaxInsts: 1e6,
//	})
//	fmt.Printf("speedup %.2fx\n", float64(base.Cycles())/float64(fast.Cycles()))
package svf

import (
	"context"
	"fmt"
	"io"

	"svf/internal/core"
	"svf/internal/experiments"
	"svf/internal/faultinject"
	"svf/internal/isa"
	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/regions"
	"svf/internal/sim"
	"svf/internal/synth"
	"svf/internal/trace"
)

// Profile describes one synthetic benchmark workload; see the fields'
// documentation for the calibration knobs.
type Profile = synth.Profile

// Program is a built (expanded and calibrated) synthetic program.
type Program = synth.Program

// Generator emits a Program's dynamic instruction trace.
type Generator = synth.Generator

// Characterization summarises a workload's stack behaviour (Figures 1-3).
type Characterization = synth.Characterization

// Benchmarks returns the twelve SPECint2000 benchmark profiles (Table 1).
func Benchmarks() []*Profile { return synth.Benchmarks() }

// BenchmarkInputs returns all seventeen benchmark·input pairs (Table 3).
func BenchmarkInputs() []*Profile { return synth.BenchmarkInputs() }

// ByName returns the bundled profile with the given name or id, or nil.
func ByName(name string) *Profile { return synth.ByName(name) }

// X86Variant derives an x86-flavoured profile (partial-word references and
// a heavier stack share) from an Alpha-flavoured one — the paper's §7
// future work.
func X86Variant(p *Profile) *Profile { return synth.X86Variant(p) }

// BuildProgram expands a profile into a static program: one draw for a
// bundled profile, whose calibrated draws are pinned, and build-time
// calibration for any other.
func BuildProgram(p *Profile) (*Program, error) { return synth.BuildProgram(p) }

// NewGenerator builds a profile's program and returns its trace generator.
func NewGenerator(p *Profile) (*Generator, error) { return synth.NewGenerator(p) }

// Characterize measures a workload's stack-reference behaviour over up to
// maxInsts instructions.
func Characterize(p *Profile, maxInsts int) (*Characterization, error) {
	g, err := synth.NewGenerator(p)
	if err != nil {
		return nil, err
	}
	return synth.Characterize(g, regions.DefaultLayout(), maxInsts), nil
}

// Options selects a complete machine configuration for Run.
type Options = sim.Options

// Result carries every statistic collected by one Run.
type Result = sim.Result

// MachineConfig is the core model (Table 2); use FourWide, EightWide or
// SixteenWide for the paper's presets.
type MachineConfig = pipeline.MachineConfig

// StackPolicy selects how stack references are treated.
type StackPolicy = pipeline.StackPolicy

// Stack policies.
const (
	// PolicyNone routes all memory references to the data cache.
	PolicyNone = pipeline.PolicyNone
	// PolicySVF morphs $sp-relative references into SVF register moves.
	PolicySVF = pipeline.PolicySVF
	// PolicyStackCache routes stack references to a decoupled stack cache.
	PolicyStackCache = pipeline.PolicyStackCache
	// PolicyRSE serves $sp-relative references from a register stack
	// engine (the §6 architectural alternative).
	PolicyRSE = pipeline.PolicyRSE
)

// Predictor kinds for Options.Predictor.
const (
	// PredPerfect is the paper's default front end.
	PredPerfect = sim.PredPerfect
	// PredGshare is the realistic global-history predictor.
	PredGshare = sim.PredGshare
	// PredBimodal is a per-PC two-bit-counter predictor.
	PredBimodal = sim.PredBimodal
)

// FourWide returns the 4-wide Table 2 machine model.
func FourWide() MachineConfig { return pipeline.FourWide() }

// EightWide returns the 8-wide Table 2 machine model.
func EightWide() MachineConfig { return pipeline.EightWide() }

// SixteenWide returns the 16-wide Table 2 machine model.
func SixteenWide() MachineConfig { return pipeline.SixteenWide() }

// Run simulates one workload under one configuration. Internal simulator
// failures come back as a *Fault, never as a panic.
func Run(p *Profile, opt Options) (*Result, error) { return sim.Run(p, opt) }

// RunContext is Run under a context: cancellation (or a deadline) stops the
// in-flight simulation at its next poll point and returns ctx's error.
func RunContext(ctx context.Context, p *Profile, opt Options) (*Result, error) {
	return sim.RunContext(ctx, p, opt)
}

// Recording is a compact recorded trace, about 3 bytes per instruction in
// memory (each load's and store's address a 16-bit offset from its first
// one) and 5–6 in a trace file, which holds every address in full.
type Recording = trace.Recording

// RecordTrace records the first n instructions of a workload. It fails if
// they name more than 32,768 distinct instruction shapes; none of the
// bundled workloads comes close.
func RecordTrace(p *Profile, n int) (*Recording, error) {
	prog, err := sim.ProgramFor(p)
	if err != nil {
		return nil, err
	}
	// Record fails only when its context is done, and Background never is.
	if rec, _ := trace.Record(context.Background(), synth.NewGeneratorFor(prog), n, trace.MaxShapes); rec != nil {
		return rec, nil
	}
	return nil, fmt.Errorf("svf: %s: %d instructions name more than %d distinct instruction shapes, the most a trace holds", p.ID(), n, trace.MaxShapes)
}

// RunTrace simulates a recorded trace (see ReadTrace) under one
// configuration, up to opt.MaxInsts instructions.
func RunTrace(name string, rec *Recording, opt Options) (*Result, error) {
	return sim.RunStream(context.Background(), name, rec.Replay(rec.Len()), opt)
}

// WriteTrace encodes a recorded trace in the binary trace format.
func WriteTrace(w io.Writer, rec *Recording) error { return trace.Write(w, rec) }

// ReadTrace decodes a binary trace; a version 1 file must be recorded again.
func ReadTrace(r io.Reader) (*Recording, error) { return trace.Read(r) }

// StackTraffic measures just the stack structure's memory traffic for a
// workload — the fast path used by Tables 3 and 4. It returns fill and
// writeback quadwords plus average context-switch flush bytes.
func StackTraffic(p *Profile, policy StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	return sim.TrafficOnly(context.Background(), p, policy, sizeBytes, maxInsts, ctxPeriod)
}

// StackTrafficSVF is StackTraffic with full control over the SVF's
// configuration (status-granularity and liveness-kill ablations).
func StackTrafficSVF(p *Profile, cfg SVFConfig, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error) {
	return sim.TrafficOnlySVF(context.Background(), p, cfg, maxInsts, ctxPeriod)
}

// Fault is a contained simulation failure: an internal panic caught by the
// recover net, a tripped deadlock watchdog, or a pipeline consistency
// error, carrying the run's fingerprint and the machine state at failure.
// Use errors.As to extract it.
type Fault = sim.Fault

// FaultPlan is a deterministic fault-injection plan for chaos-testing the
// supervision machinery (Options.FaultPlan, ExperimentConfig.Inject, and
// svfexp -inject). The zero value injects nothing.
type FaultPlan = faultinject.Plan

// ParseFaultPlan parses the comma-separated key=value plan syntax used by
// svfexp -inject (keys: bench, panic, stall, eof, corrupt, seed).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faultinject.Parse(spec) }

// FaultLog collects the cell failures a supervised experiment suite
// survived under its continue-on-fault policy (ExperimentConfig.Faults).
type FaultLog = experiments.FaultLog

// NewFaultLog returns an empty fault log.
func NewFaultLog() *FaultLog { return experiments.NewFaultLog() }

// Inst is one dynamic instruction of a workload trace.
type Inst = isa.Inst

// SVFConfig parameterises a standalone SVF instance (advanced use: driving
// the structure directly rather than through Run).
type SVFConfig = core.Config

// SVF is the stack value file structure itself.
type SVF = core.SVF

// SVFStats are the SVF's event counters.
type SVFStats = core.Stats

// ExperimentConfig controls the paper-reproduction harnesses.
type ExperimentConfig = experiments.Config

// RunCache memoizes complete simulation runs, keyed by the workload's
// content fingerprint and the canonicalized Options, with single-flight
// deduplication of concurrent identical runs. Experiment harnesses share
// one via ExperimentConfig.Cache. A run that faults is retried once after
// a short backoff (SetRetries changes the budget); a cell whose budget is
// spent is refused for the cache's lifetime rather than run again.
type RunCache = sim.RunCache

// RunCacheStats is a point-in-time summary of a RunCache.
type RunCacheStats = sim.CacheStats

// NewRunCache returns an empty run cache.
func NewRunCache() *RunCache { return sim.NewRunCache() }

// SharedRunCache returns the process-wide run cache the experiment
// harnesses use when ExperimentConfig.Cache is nil. Use it directly for
// ad-hoc runs that should reuse the experiments' results:
//
//	out, err := svf.SharedRunCache().Do(ctx, svf.RunCell(prof, &opt))
func SharedRunCache() *RunCache { return sim.SharedCache() }

// Cell is one unit of work a RunCache executes: a timing run when Opt is
// set, a stack-traffic run otherwise. RunCell and TrafficCell build one
// and derive its cache key.
type Cell = sim.Cell

// Outcome is what a Cell produced: a timing run's Result, or a traffic
// run's quadwords in and out and bytes per context switch.
type Outcome = sim.Outcome

// RunCell is the timing cell of opt on prof. The cell keeps opt, so
// neither the caller nor the cache may modify it afterwards.
func RunCell(prof *Profile, opt *Options) *Cell { return sim.RunCell(prof, opt) }

// TrafficCell is the stack-traffic cell StackTraffic would run.
func TrafficCell(prof *Profile, policy StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) *Cell {
	return sim.TrafficCell(prof, policy, sizeBytes, maxInsts, ctxPeriod)
}

// Journal is a crash-safe, append-only on-disk campaign journal; pair it
// with NewJournaledRunCache for sweeps that survive process death (the
// svfexp -journal / -resume machinery). See DESIGN.md §5d.
type Journal = journal.Journal

// JournalReplay is what OpenJournal found in an existing journal.
type JournalReplay = journal.Replay

// OpenJournal opens (creating if needed) the campaign journal in dir,
// repairing any crash-torn tail and refusing a directory another process
// holds open.
func OpenJournal(dir string) (*Journal, *JournalReplay, error) {
	return journal.Open(dir, journal.Options{})
}

// NewJournaledRunCache returns a run cache that persists every completed
// cell to j and starts warm from the replay: completed cells are served
// from disk without re-executing, and faulted cells resume with their
// prior attempts counted against the cache's retry budget (SetRetries).
func NewJournaledRunCache(j *Journal, rep *JournalReplay) (*RunCache, RunCacheRestoreStats) {
	return sim.NewRunCacheWithJournal(j, rep)
}

// RunCacheRestoreStats summarises what a journal replay put back into a
// run cache.
type RunCacheRestoreStats = sim.RestoreStats

// LatchedError reports a campaign cell whose retry budget was exhausted in
// this or a previous session; the journal serves the failure instead of
// re-executing. Use errors.As to extract it.
type LatchedError = sim.LatchedError

// Experiment result types.
type (
	Fig1Result   = experiments.Fig1Result
	Fig2Result   = experiments.Fig2Result
	Fig3Result   = experiments.Fig3Result
	Fig5Result   = experiments.Fig5Result
	Fig6Result   = experiments.Fig6Result
	Fig7Result   = experiments.Fig7Result
	Fig8Result   = experiments.Fig8Result
	Fig9Result   = experiments.Fig9Result
	Table3Result = experiments.Table3Result
	Table4Result = experiments.Table4Result
	SweepResult  = experiments.SweepResult
	X86Result    = experiments.X86Result
)

// Fig1 reproduces Figure 1 (memory access distribution).
func Fig1(cfg ExperimentConfig) (*Fig1Result, error) { return experiments.Fig1(cfg) }

// Fig2 reproduces Figure 2 (stack depth variation over time).
func Fig2(cfg ExperimentConfig) (*Fig2Result, error) { return experiments.Fig2(cfg) }

// Fig3 reproduces Figure 3 (offset locality within a function).
func Fig3(cfg ExperimentConfig) (*Fig3Result, error) { return experiments.Fig3(cfg) }

// Fig5 reproduces Figure 5 (morphing speedup potential).
func Fig5(cfg ExperimentConfig) (*Fig5Result, error) { return experiments.Fig5(cfg) }

// Fig6 reproduces Figure 6 (progressive performance analysis).
func Fig6(cfg ExperimentConfig) (*Fig6Result, error) { return experiments.Fig6(cfg) }

// Fig7 reproduces Figure 7 (SVF vs stack cache vs baseline ports).
func Fig7(cfg ExperimentConfig) (*Fig7Result, error) { return experiments.Fig7(cfg) }

// Fig8 reproduces Figure 8 (SVF reference type breakdown).
func Fig8(cfg ExperimentConfig) (*Fig8Result, error) { return experiments.Fig8(cfg) }

// Fig9 reproduces Figure 9 (implemented SVF speedups).
func Fig9(cfg ExperimentConfig) (*Fig9Result, error) { return experiments.Fig9(cfg) }

// Table3 reproduces Table 3 (stack cache vs SVF memory traffic).
func Table3(cfg ExperimentConfig) (*Table3Result, error) { return experiments.Table3(cfg) }

// Table4 reproduces Table 4 (context switch traffic).
func Table4(cfg ExperimentConfig) (*Table4Result, error) { return experiments.Table4(cfg) }

// Sweep explores the SVF capacity × ports design space (§7's area
// trade-off, beyond the paper's fixed 8KB point).
func Sweep(cfg ExperimentConfig) (*SweepResult, error) { return experiments.Sweep(cfg) }

// X86 runs the §7 future-work experiment: every benchmark in Alpha and
// x86 (partial-word) flavours under the SVF.
func X86(cfg ExperimentConfig) (*X86Result, error) { return experiments.X86(cfg) }

// Scorecard grades every headline claim of the paper's evaluation against
// fresh measurements.
type Scorecard = experiments.Scorecard

// RunScorecard executes the core experiments and grades the paper's
// headline claims.
func RunScorecard(cfg ExperimentConfig) (*Scorecard, error) {
	return experiments.RunScorecard(cfg)
}
