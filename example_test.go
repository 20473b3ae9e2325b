package svf_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"svf"
)

// ExampleSharedRunCache routes ad-hoc runs through the process-wide cache
// the experiment harnesses share: a repeated request is served from the
// cache instead of re-simulating.
func ExampleSharedRunCache() {
	ctx := context.Background()
	prof := svf.ByName("164.gzip")
	opt := svf.Options{Policy: svf.PolicySVF, StackPorts: 2, MaxInsts: 20_000}
	cache := svf.SharedRunCache()
	first, _ := cache.Run(ctx, prof, opt)
	hits := cache.Stats().Hits
	again, _ := cache.Run(ctx, prof, opt)
	fmt.Println(again.Cycles() == first.Cycles(), cache.Stats().Hits == hits+1)
	// Output: true true
}

// ExampleParseFaultPlan injects a deterministic panic into one workload's
// run; the simulator contains it and returns a typed *Fault.
func ExampleParseFaultPlan() {
	plan, err := svf.ParseFaultPlan("bench=186.crafty,panic=2000")
	if err != nil {
		fmt.Println(err)
		return
	}
	_, err = svf.Run(svf.ByName("186.crafty"), svf.Options{MaxInsts: 20_000, FaultPlan: plan})
	var f *svf.Fault
	fmt.Println(errors.As(err, &f), f.Bench, f.Panic != "")
	// Output: true 186.crafty.ref true
}

// ExampleMachineConfig lists the paper's three Table 2 machine presets.
func ExampleMachineConfig() {
	for _, m := range []svf.MachineConfig{svf.FourWide(), svf.EightWide(), svf.SixteenWide()} {
		fmt.Println(m.Name, m.Width, m.RUUSize)
	}
	// Output:
	// 4-wide 4 64
	// 8-wide 8 128
	// 16-wide 16 256
}

// ExampleBenchmarks lists the bundled workloads and builds one's program.
func ExampleBenchmarks() {
	fmt.Println(len(svf.Benchmarks()), "benchmarks,", len(svf.BenchmarkInputs()), "benchmark-input pairs")
	prog, err := svf.BuildProgram(svf.ByName("164.gzip"))
	fmt.Println(prog.Prof.ID(), err)
	// Output:
	// 12 benchmarks, 17 benchmark-input pairs
	// 164.gzip.graphic <nil>
}

// ExampleRunTrace records a workload's instructions, round-trips them
// through the binary trace format, and replays them: the replay times
// exactly like the live run.
func ExampleRunTrace() {
	prof := svf.ByName("164.gzip")
	gen, _ := svf.NewGenerator(prof)
	insts := make([]svf.Inst, 20_000)
	for i := range insts {
		gen.Next(&insts[i])
	}
	var buf bytes.Buffer
	_ = svf.WriteTrace(&buf, insts)
	reloaded, _ := svf.ReadTrace(&buf)

	opt := svf.Options{Policy: svf.PolicySVF, StackPorts: 2, MaxInsts: len(insts)}
	live, _ := svf.RunContext(context.Background(), prof, opt)
	replayed, _ := svf.RunTrace("gzip-replay", reloaded, opt)
	fmt.Println(replayed.Cycles() == live.Cycles())
	// Output: true
}

// ExampleStackTrafficSVF ablates the SVF's liveness kills (§5.3.2):
// without them, dead stack words are fetched and written back like a
// cache's lines.
func ExampleStackTrafficSVF() {
	gcc := svf.ByName("176.gcc")
	in, out, _, _ := svf.StackTrafficSVF(gcc, svf.SVFConfig{SizeBytes: 2 << 10}, 300_000, 0)
	nkIn, nkOut, _, _ := svf.StackTrafficSVF(gcc, svf.SVFConfig{SizeBytes: 2 << 10, DisableKills: true}, 300_000, 0)
	fmt.Println(nkIn+nkOut > 5*(in+out))
	// Output: true
}

// ExampleOpenJournal persists a campaign's cells: a second session over
// the same journal serves the completed run from disk.
func ExampleOpenJournal() {
	dir, _ := os.MkdirTemp("", "svf-journal")
	defer os.RemoveAll(dir)
	prof := svf.ByName("175.vpr")
	opt := svf.Options{MaxInsts: 20_000}

	j, rep, _ := svf.OpenJournal(dir)
	cache, _ := svf.NewJournaledRunCache(j, rep)
	first, _ := cache.Run(context.Background(), prof, opt)
	j.Close()

	j, rep, _ = svf.OpenJournal(dir)
	defer j.Close()
	cache, restored := svf.NewJournaledRunCache(j, rep)
	again, _ := cache.Run(context.Background(), prof, opt)
	fmt.Println(restored.Restored(), "restored;", cache.Stats().Misses, "simulated;", again.Cycles() == first.Cycles())
	// Output: 1 restored; 0 simulated; true
}

// ExampleExperimentConfig runs every paper harness on one benchmark at a
// toy budget, through a private run cache and a fault log.
func ExampleExperimentConfig() {
	cfg := svf.ExperimentConfig{
		MaxInsts:     5_000,
		TrafficInsts: 20_000,
		Benchmarks:   []*svf.Profile{svf.ByName("164.gzip")},
		Cache:        svf.NewRunCache(),
		Faults:       svf.NewFaultLog(),
	}
	f1, _ := svf.Fig1(cfg)
	f2, _ := svf.Fig2(cfg)
	f3, _ := svf.Fig3(cfg)
	f5, _ := svf.Fig5(cfg)
	f6, _ := svf.Fig6(cfg)
	f7, _ := svf.Fig7(cfg)
	f8, _ := svf.Fig8(cfg)
	f9, _ := svf.Fig9(cfg)
	t3, _ := svf.Table3(cfg)
	t4, _ := svf.Table4(cfg)
	x86, _ := svf.X86(cfg)
	fmt.Println(len(f1.Rows), len(f2.Series), len(f3.Rows), len(f5.Rows), len(f6.Rows), len(f7.Rows),
		len(f8.Rows), len(f9.Rows), len(t3.Rows), len(t4.Rows), len(x86.Rows))
	sweep, _ := svf.Sweep(cfg)
	fmt.Println(len(sweep.Points) == len(sweep.Sizes)*len(sweep.Ports))
	card, _ := svf.RunScorecard(cfg)
	fmt.Println(len(card.Entries), "claims graded;", cfg.Faults.Summary() == "")
	// Output:
	// 1 1 1 1 1 1 1 1 1 1 1
	// true
	// 11 claims graded; true
}
