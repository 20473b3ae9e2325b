package sim

import (
	"context"
	"math/rand"
	"testing"

	"svf/internal/isa"
	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/trace"
)

// benchCellInsts is the per-run instruction budget for the campaign-cell
// benchmark; benchStreamInsts the per-iteration budget for the raw
// stream-production benchmarks.
const (
	benchCellInsts   = 200_000
	benchStreamInsts = 200_000
)

// benchProgram builds (once) the crafty program every sim benchmark uses.
func benchProgram(b *testing.B) *synth.Program {
	b.Helper()
	prog, err := ProgramFor(synth.Crafty())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkGeneratorExec measures raw instruction-stream production by
// the synth generator: what every run paid before the trace cache, and
// what the first run of a profile still pays while recording.
func BenchmarkGeneratorExec(b *testing.B) {
	prog := benchProgram(b)
	gen := synth.NewGeneratorFor(prog)
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		for k := 0; k < benchStreamInsts; k++ {
			if !gen.Next(&in) {
				b.Fatal("generator exhausted")
			}
		}
	}
	b.ReportMetric(float64(b.N)*benchStreamInsts/b.Elapsed().Seconds(), "insts/sec")
}

// BenchmarkTraceReplay is the same stream production served from a
// compact recording, as a trace-cache hit serves it — the per-instruction
// cost every post-first run pays instead of BenchmarkGeneratorExec.
func BenchmarkTraceReplay(b *testing.B) {
	prog := benchProgram(b)
	stream := trace.Record(synth.NewGeneratorFor(prog), benchStreamInsts, trace.MaxShapes).Replay(benchStreamInsts)
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		for k := 0; k < benchStreamInsts; k++ {
			if !stream.Next(&in) {
				b.Fatal("trace exhausted")
			}
		}
	}
	b.ReportMetric(float64(b.N)*benchStreamInsts/b.Elapsed().Seconds(), "insts/sec")
}

// recordInsts is BenchmarkTraceRecord's budget: one campaign-traffic
// recording.
const recordInsts = 2_000_000

// BenchmarkTraceRecord measures what the first run of a workload pays to
// record its trace: the generator plus the recorder, per instruction, and
// the recording's size per instruction.
func BenchmarkTraceRecord(b *testing.B) {
	prog := benchProgram(b)
	var rec *trace.Recording
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = trace.Record(synth.NewGeneratorFor(prog), recordInsts, trace.MaxShapes)
	}
	b.ReportMetric(float64(b.N)*recordInsts/b.Elapsed().Seconds(), "insts/sec")
	b.ReportMetric(float64(rec.Bytes())/recordInsts, "bytes/inst")
}

// BenchmarkCampaignCell measures one Table 3 campaign cell: the same
// profile's trace driven through five stack-structure configurations
// (an SVF size sweep plus the stack cache) via TrafficOnly. These
// functional sweeps are where the trace cache bites hardest — stream
// production dominated each run before recording, and all five configs
// now share one recorded trace.
func BenchmarkCampaignCell(b *testing.B) {
	if testing.Short() {
		b.Skip("campaign benchmarks are skipped in -short mode")
	}
	prof := synth.Crafty()
	type cell struct {
		policy    pipeline.StackPolicy
		sizeBytes int
	}
	configs := []cell{
		{pipeline.PolicySVF, 2 << 10},
		{pipeline.PolicySVF, 4 << 10},
		{pipeline.PolicySVF, 8 << 10},
		{pipeline.PolicySVF, 16 << 10},
		{pipeline.PolicyStackCache, 8 << 10},
	}
	benchProgram(b) // program build/calibration is setup, not the cell
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			if _, _, _, err := TrafficOnly(ctx, prof, c.policy, c.sizeBytes, benchCellInsts, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*5*benchCellInsts/b.Elapsed().Seconds(), "insts/sec")
}

// timingCellConfigs is one timing sweep cell: the same profile across
// the baseline machine, an SVF port sweep, and the stack cache — five
// full timing runs that share one recorded trace and the machine pools.
func timingCellConfigs() []Options {
	return []Options{
		{MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicySVF, StackPorts: 1, MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicySVF, StackPorts: 4, MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicyStackCache, StackPorts: 2, MaxInsts: benchCellInsts},
	}
}

// BenchmarkTimingCampaignCell is the full-pipeline equivalent: five
// timing runs through the complete sim entry point. Replay and pooling
// help here too, but the pipeline hot loop dominates, so the win tracks
// BenchmarkPipelineRaw rather than BenchmarkTraceReplay.
func BenchmarkTimingCampaignCell(b *testing.B) {
	if testing.Short() {
		b.Skip("campaign benchmarks are skipped in -short mode")
	}
	prof := synth.Crafty()
	configs := timingCellConfigs()
	benchProgram(b)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, opt := range configs {
			res, err := Run(prof, opt)
			if err != nil {
				b.Fatal(err)
			}
			insts += res.Pipe.Committed
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/sec")
}

// The service-cell benchmark's budgets: svfd-fresh's cells (cmd/svfbench)
// run serviceCellInsts plus a seeded jitter below serviceCellJitter.
const (
	serviceCellInsts  = 20_000
	serviceCellJitter = 1_000
)

// serviceCell is one svfd-fresh run cell: a benchmark profile, a stack
// policy, the port count and the instruction budget.
type serviceCell struct {
	prof   int
	policy pipeline.StackPolicy
	ports  int
	insts  int
}

// serviceDraws is the process-wide cell draw, so no cell repeats across
// the benchmark's b.N rounds, as none repeats within one daemon worker.
var serviceDraws = struct {
	rng  *rand.Rand
	used map[serviceCell]bool
}{rand.New(rand.NewSource(1)), map[serviceCell]bool{}}

func drawServiceCell(b *testing.B, nprofs int) serviceCell {
	d := &serviceDraws
	for tries := 0; tries < 1000; tries++ {
		c := serviceCell{
			prof:   d.rng.Intn(nprofs),
			policy: pipeline.StackPolicy(d.rng.Intn(3)), // none, SVF, stack cache
			ports:  1 + d.rng.Intn(2),
			insts:  serviceCellInsts + d.rng.Intn(serviceCellJitter),
		}
		if !d.used[c] {
			d.used[c] = true
			return c
		}
	}
	b.Fatal("no unused service cell left to draw")
	return serviceCell{}
}

// BenchmarkServiceCells runs svfd-fresh's cell shape in one process, one
// cell per iteration: the 12 benchmark profiles × {none, SVF, stack
// cache} × 1–2 ports at a jittered ~20k-instruction budget, never
// repeated. Every budget is new, so the trace cache serves a cell only
// from a prefix of a longer recording: hits/cell, traces (resident
// recordings) and trace-MB show how well it does.
func BenchmarkServiceCells(b *testing.B) {
	if testing.Short() {
		b.Skip("campaign benchmarks are skipped in -short mode")
	}
	profs := synth.Benchmarks()
	for _, prof := range profs {
		if _, err := ProgramFor(prof); err != nil {
			b.Fatal(err)
		}
	}
	cells := make([]serviceCell, b.N)
	for i := range cells {
		cells[i] = drawServiceCell(b, len(profs))
	}
	before := TraceCacheStats()
	var insts uint64
	b.ResetTimer()
	for _, c := range cells {
		opt := Options{Policy: c.policy, DL1Ports: c.ports, MaxInsts: c.insts}
		if c.policy != pipeline.PolicyNone {
			opt.StackPorts = c.ports
		}
		res, err := Run(profs[c.prof], opt)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Pipe.Committed
	}
	b.StopTimer()
	after := TraceCacheStats()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/sec")
	b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "hits/cell")
	b.ReportMetric(float64(after.Entries), "traces")
	b.ReportMetric(float64(after.UsedBytes)/(1<<20), "trace-MB")
}
