// Command svfsim runs one benchmark on one machine configuration and dumps
// every statistic the simulator collects — the tool to reach for when
// exploring a single configuration rather than regenerating a paper figure.
//
// Usage:
//
//	svfsim -bench 186.crafty -policy svf -dl1ports 2 -stackports 2
//	svfsim -bench 252.eon -policy stackcache -size 8192
//	svfsim -bench 176.gcc -width 8 -pred gshare -insts 1000000
package main

import (
	"flag"
	"fmt"
	"os"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

func main() {
	bench := flag.String("bench", "186.crafty", "benchmark name or id (see Table 1)")
	width := flag.Int("width", 16, "machine width: 4, 8 or 16 (Table 2)")
	policy := flag.String("policy", "baseline", "stack policy: baseline, svf, stackcache, rse")
	size := flag.Int("size", 8192, "SVF/stack cache capacity in bytes")
	dl1Ports := flag.Int("dl1ports", 2, "first-level data cache ports")
	stackPorts := flag.Int("stackports", 2, "SVF/stack cache ports (0 = unlimited)")
	pred := flag.String("pred", "perfect", "branch predictor: perfect, gshare, bimodal")
	insts := flag.Int("insts", 1_000_000, "instructions to simulate")
	infinite := flag.Bool("infinite", false, "use an infinite SVF (Figure 5 limit study)")
	ctx := flag.Uint64("ctxperiod", 0, "context switch period in instructions (0 = off)")
	noSquash := flag.Bool("nosquash", false, "assume the collision-free code generator (no squashes)")
	flag.Parse()

	prof := synth.ByName(*bench)
	if prof == nil {
		fmt.Fprintf(os.Stderr, "svfsim: unknown benchmark %q; known:\n", *bench)
		for _, p := range synth.BenchmarkInputs() {
			fmt.Fprintf(os.Stderr, "  %s\n", p.ID())
		}
		os.Exit(2)
	}

	var mc pipeline.MachineConfig
	switch *width {
	case 4:
		mc = pipeline.FourWide()
	case 8:
		mc = pipeline.EightWide()
	case 16:
		mc = pipeline.SixteenWide()
	default:
		fmt.Fprintf(os.Stderr, "svfsim: width must be 4, 8 or 16\n")
		os.Exit(2)
	}
	mc.NoSquash = *noSquash

	opt := sim.Options{
		Machine:         mc,
		DL1Ports:        *dl1Ports,
		StackSizeBytes:  *size,
		StackPorts:      *stackPorts,
		SVFInfinite:     *infinite,
		Predictor:       sim.PredictorKind(*pred),
		MaxInsts:        *insts,
		CtxSwitchPeriod: *ctx,
	}
	var err error
	if opt.Policy, err = pipeline.ParsePolicy(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "svfsim: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	r, err := sim.Run(prof, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark        %s\n", r.Bench)
	fmt.Printf("machine          %s, %d DL1 ports, policy %s", mc.Name, opt.Machine.DL1Ports, *policy)
	if opt.Policy != pipeline.PolicyNone {
		fmt.Printf(" (%dB, %d ports)", *size, *stackPorts)
	}
	fmt.Println()
	fmt.Printf("predictor        %s\n", *pred)
	fmt.Println()
	p := r.Pipe
	fmt.Printf("cycles           %d\n", p.Cycles)
	fmt.Printf("instructions     %d\n", p.Committed)
	fmt.Printf("IPC              %.3f\n", p.IPC())
	fmt.Printf("branches         %d (mispredicted %d)\n", p.Branches, p.Mispredicts)
	fmt.Printf("mem refs         %d (dl1 %d, stack$ %d, svf %d)\n", p.MemRefs, p.DL1Refs, p.StackRefs, p.SVFRefs)
	fmt.Printf("lsq forwards     %d\n", p.Forwards)
	fmt.Printf("squashes         %d\n", p.Squashes)
	fmt.Printf("decode interlocks %d\n", p.Interlocks)
	fmt.Printf("port conflicts   dl1 %d, stack %d\n", p.DL1PortConflicts, p.StackPortConflicts)
	fmt.Printf("window stalls    ruu %d, lsq %d\n", p.RUUFullStalls, p.LSQFullStalls)
	fmt.Printf("context switches %d\n", p.CtxSwitches)
	fmt.Println()
	fmt.Printf("IL1              %d accesses, %.2f%% miss\n", r.IL1.Accesses, 100*r.IL1.MissRate())
	fmt.Printf("DL1              %d accesses, %.2f%% miss, %d B in, %d B out\n",
		r.DL1.Accesses, 100*r.DL1.MissRate(), r.DL1.BytesIn, r.DL1.BytesOut)
	fmt.Printf("UL2              %d accesses, %.2f%% miss\n", r.UL2.Accesses, 100*r.UL2.MissRate())
	fmt.Printf("memory           %d accesses\n", r.MemAccesses)
	if r.SVF != nil {
		s := r.SVF
		fmt.Println()
		fmt.Printf("SVF morphed      %d loads, %d stores\n", s.MorphedLoads, s.MorphedStores)
		fmt.Printf("SVF rerouted     %d loads, %d stores\n", s.ReroutedLoads, s.ReroutedStores)
		fmt.Printf("SVF fills        %d quadwords in\n", s.QuadWordsIn)
		fmt.Printf("SVF spills       %d quadwords out\n", s.QuadWordsOut)
		fmt.Printf("SVF kills        %d alloc, %d dealloc (writebacks avoided)\n", s.AllocKills, s.DeallocKills)
		if s.CtxSwitches > 0 {
			fmt.Printf("SVF ctx flush    %d B/switch\n", r.SVFCtxBytes)
		}
	}
	if r.SC != nil {
		fmt.Println()
		fmt.Printf("stack$           %d accesses, %.2f%% miss\n", r.SC.Accesses, 100*r.SC.MissRate())
		fmt.Printf("stack$ traffic   %d QW in, %d QW out\n", r.SCQWIn, r.SCQWOut)
		if p.CtxSwitches > 0 {
			fmt.Printf("stack$ ctx flush %d B/switch\n", r.SCCtxBytes)
		}
	}
	if r.RSE != nil {
		fmt.Println()
		fmt.Printf("RSE refs         %d register, %d memory\n", r.RSE.RegRefs, r.RSE.MemRefs)
		fmt.Printf("RSE events       %d overflows, %d underflows\n", r.RSE.Overflows, r.RSE.Underflows)
		fmt.Printf("RSE traffic      %d QW in, %d QW out\n", r.RSEQWIn, r.RSEQWOut)
		if p.CtxSwitches > 0 {
			fmt.Printf("RSE ctx flush    %d B/switch\n", r.RSECtxBytes)
		}
	}
}
