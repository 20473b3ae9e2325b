// Command svftrace records, inspects and replays binary instruction
// traces, decoupling workload generation from simulation (the classic
// trace-driven workflow: generate once, simulate many configurations).
// A trace takes about 5–6 bytes per instruction; record v1 files again.
//
// Usage:
//
//	svftrace record -bench 186.crafty -insts 1000000 -o crafty.trc
//	svftrace info crafty.trc
//	svftrace replay -policy svf -stackports 2 crafty.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"svf"
	"svf/internal/isa"
	"svf/internal/pipeline"
	"svf/internal/regions"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: svftrace record|info|replay [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "svftrace: %v\n", err)
	os.Exit(1)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "186.crafty", "benchmark to record")
	insts := fs.Int("insts", 1_000_000, "instructions to record")
	out := fs.String("o", "trace.trc", "output file")
	fs.Parse(args)

	prof := svf.ByName(*bench)
	if prof == nil {
		fatal(fmt.Errorf("unknown benchmark %q", *bench))
	}
	rec, err := svf.RecordTrace(prof, *insts)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := svf.WriteTrace(f, rec); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", rec.Len(), prof.ID(), *out)
}

func load(path string) *svf.Recording {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rec, err := svf.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	return rec
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("info needs a trace file"))
	}
	rec := load(fs.Arg(0))
	layout := regions.DefaultLayout()

	var kinds [256]uint64 // any Kind value: a trace may carry corrupted ones
	var mem, stack, sp uint64
	var in isa.Inst
	for s := rec.Replay(rec.Len()); s.Next(&in); {
		kinds[in.Kind]++
		if in.IsMem() {
			mem++
			if layout.InStack(in.Addr) {
				stack++
				if in.SPRelative() {
					sp++
				}
			}
		}
	}
	n := rec.Len()
	fmt.Printf("instructions   %d\n", n)
	for k, c := range kinds {
		if c > 0 {
			fmt.Printf("  %-8s %10d (%5.1f%%)\n", isa.Kind(k), c, 100*float64(c)/float64(n))
		}
	}
	if mem > 0 {
		fmt.Printf("memory refs    %d (%.1f%% of instructions)\n", mem, 100*float64(mem)/float64(n))
		fmt.Printf("stack refs     %d (%.1f%% of memory)\n", stack, 100*float64(stack)/float64(mem))
		if stack > 0 {
			fmt.Printf("$sp-relative   %d (%.1f%% of stack)\n", sp, 100*float64(sp)/float64(stack))
		}
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	policy := fs.String("policy", "baseline", "baseline, svf, stackcache or rse")
	dl1Ports := fs.Int("dl1ports", 2, "DL1 ports")
	stackPorts := fs.Int("stackports", 2, "stack structure ports")
	size := fs.Int("size", 8192, "stack structure bytes")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("replay needs a trace file"))
	}
	rec := load(fs.Arg(0))

	opt := svf.Options{
		DL1Ports:       *dl1Ports,
		StackSizeBytes: *size,
		StackPorts:     *stackPorts,
		MaxInsts:       rec.Len(),
	}
	var err error
	if opt.Policy, err = pipeline.ParsePolicy(*policy); err != nil {
		fatal(err)
	}
	r, err := svf.RunTrace(fs.Arg(0), rec, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d instructions in %d cycles (IPC %.3f, policy %s)\n",
		r.Pipe.Committed, r.Cycles(), r.IPC(), *policy)
}
