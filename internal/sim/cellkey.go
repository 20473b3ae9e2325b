package sim

import (
	"fmt"
	"hash/fnv"
	"io"

	"svf/internal/pipeline"
	"svf/internal/synth"
)

// Cell is one resolved unit of work, the value every layer above the
// simulator carries: the service resolves a submitted cell into one, the
// experiment grids build one per grid cell, the run cache executes and
// memoizes it, and the shard wire ships it to a worker. It is a timing run
// of Opt when Opt is set, and a functional traffic run (TrafficOnly's
// parameters) otherwise.
//
// RunCell and TrafficCell derive the cell's key once, and Key returns it
// from then on. A cell decoded from the wire has no key: a worker only
// executes it. The JSON encoding carries the exported fields only.
type Cell struct {
	// Prof is the complete workload profile (pure data, so a worker
	// rebuilds the exact program from the same seed).
	Prof *synth.Profile
	// Opt is a timing cell's configuration. The cell shares it with
	// whoever built it, so nobody may write through it afterwards.
	Opt *Options `json:",omitempty"`

	// A traffic cell's stack structure, its size, budget and
	// context-switch period.
	Policy    pipeline.StackPolicy `json:",omitempty"`
	SizeBytes int                  `json:",omitempty"`
	MaxInsts  int                  `json:",omitempty"`
	CtxPeriod uint64               `json:",omitempty"`

	// fp is the profile's content fingerprint and key the cell key, both
	// derived by the constructors; a completed cell's journal record
	// carries both.
	fp, key string
}

// Outcome is what a cell produced: a timing cell's Result, or a traffic
// cell's quadwords in and out and its average bytes per context switch.
type Outcome struct {
	Run               *Result `json:",omitempty"`
	In, Out, CtxBytes uint64  `json:",omitempty"`
}

// RunCell is the timing cell of opt on prof. The cell keeps opt.
func RunCell(prof *synth.Profile, opt *Options) *Cell {
	fp := prof.Fingerprint()
	return &Cell{Prof: prof, Opt: opt, fp: fp, key: runCellKey(fp, Canonical(*opt))}
}

// TrafficCell is the functional traffic cell of TrafficOnly's parameters.
func TrafficCell(prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) *Cell {
	fp := prof.Fingerprint()
	return &Cell{
		Prof: prof, Policy: policy, SizeBytes: sizeBytes, MaxInsts: maxInsts, CtxPeriod: ctxPeriod,
		fp: fp, key: trafficCellKey(fp, policy, sizeBytes, maxInsts, ctxPeriod),
	}
}

// Key is the cell's stable identity (RunCellKey or TrafficCellKey); empty
// for a cell decoded from the wire.
func (c *Cell) Key() string { return c.key }

// runCellKey renders a run cell's key from its workload identity (the
// profile's content fingerprint) and canonical options: the one identity
// the cache, its store, the journal and every fault and event fingerprint
// use. The full options rendering (not a hash) is used so distinct cells
// can never collide; a format change across versions merely makes old
// records unmatchable, which costs a re-execution, never a wrong result.
// TestCellKeyGolden pins the bytes.
func runCellKey(prof string, canon Options) string {
	return "run|" + prof + "|" + fmt.Sprintf("%+v", canon)
}

// trafficCellKey renders a traffic cell's key.
func trafficCellKey(prof string, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) string {
	return fmt.Sprintf("traffic|%s|%d|%d|%d|%d", prof, policy, sizeBytes, maxInsts, ctxPeriod)
}

// RunCellKey is a run cell's stable identity, RunCell(prof, &opt).Key(),
// without building the cell.
func RunCellKey(prof *synth.Profile, opt Options) string {
	return runCellKey(prof.Fingerprint(), Canonical(opt))
}

// TrafficCellKey is a traffic cell's stable identity.
func TrafficCellKey(prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) string {
	return trafficCellKey(prof.Fingerprint(), policy, sizeBytes, maxInsts, ctxPeriod)
}

// shortKey is the 16-hex fnv-64a short form of a cell key: the
// fingerprint faults and events carry.
func shortKey(key string) string {
	h := fnv.New64a()
	io.WriteString(h, key)
	return fmt.Sprintf("%016x", h.Sum64())
}
