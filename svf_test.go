package svf_test

import (
	"bytes"
	"fmt"
	"testing"

	"svf"
)

func TestPublicAPIBenchmarks(t *testing.T) {
	if len(svf.Benchmarks()) != 12 {
		t.Fatal("Benchmarks() should expose the twelve Table 1 profiles")
	}
	if len(svf.BenchmarkInputs()) != 17 {
		t.Fatal("BenchmarkInputs() should expose the seventeen Table 3 rows")
	}
	if svf.ByName("256.bzip2") == nil {
		t.Fatal("ByName failed for a bundled benchmark")
	}
}

func TestPublicAPIRun(t *testing.T) {
	prof := svf.ByName("175.vpr")
	base, err := svf.Run(prof, svf.Options{MaxInsts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := svf.Run(prof, svf.Options{Policy: svf.PolicySVF, StackPorts: 2, MaxInsts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles() >= base.Cycles() {
		t.Errorf("SVF (%d cycles) should beat the baseline (%d)", fast.Cycles(), base.Cycles())
	}
	if fast.SVF == nil || fast.SVF.MorphedRefs() == 0 {
		t.Error("SVF run should morph references")
	}
}

func TestPublicAPICharacterize(t *testing.T) {
	c, err := svf.Characterize(svf.ByName("164.gzip"), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.MemFrac() <= 0 || c.StackFrac() <= 0 {
		t.Error("characterisation returned no data")
	}
}

func TestPublicAPITraffic(t *testing.T) {
	scIn, _, _, err := svf.StackTraffic(svf.ByName("176.gcc"), svf.PolicyStackCache, 2<<10, 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	svfIn, _, _, err := svf.StackTrafficSVF(svf.ByName("176.gcc"), svf.SVFConfig{SizeBytes: 2 << 10}, 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if svfIn >= scIn {
		t.Errorf("SVF fills (%d) should be below stack-cache fills (%d)", svfIn, scIn)
	}
}

func TestPublicAPIMachinePresets(t *testing.T) {
	if svf.FourWide().Width != 4 || svf.EightWide().Width != 8 || svf.SixteenWide().Width != 16 {
		t.Error("machine presets wrong")
	}
}

func TestAblationKnobsExposed(t *testing.T) {
	// Coarser status granularity must cost traffic (§3.3).
	prof := svf.ByName("186.crafty")
	fineIn, fineOut, _, err := svf.StackTrafficSVF(prof, svf.SVFConfig{SizeBytes: 2 << 10}, 400_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	coarseIn, coarseOut, _, err := svf.StackTrafficSVF(prof, svf.SVFConfig{SizeBytes: 2 << 10, StatusGranularityWords: 4}, 400_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if coarseIn+coarseOut <= fineIn+fineOut {
		t.Errorf("4-word granularity (%d QW) should cost more traffic than per-word (%d QW)",
			coarseIn+coarseOut, fineIn+fineOut)
	}
	// Disabling the liveness kills must cost much more traffic (§5.3.2).
	nokillIn, nokillOut, _, err := svf.StackTrafficSVF(prof, svf.SVFConfig{SizeBytes: 2 << 10, DisableKills: true}, 400_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nokillIn+nokillOut < 5*(fineIn+fineOut) {
		t.Errorf("disabling kills gives %d QW vs %d; expected a large degradation",
			nokillIn+nokillOut, fineIn+fineOut)
	}
}

// Example demonstrates the smallest end-to-end use of the library.
func Example() {
	prof := svf.ByName("164.gzip")
	base, _ := svf.Run(prof, svf.Options{MaxInsts: 50_000})
	fast, _ := svf.Run(prof, svf.Options{Policy: svf.PolicySVF, StackPorts: 2, MaxInsts: 50_000})
	fmt.Println(fast.Cycles() < base.Cycles())
	// Output: true
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	prof := svf.ByName("164.gzip")
	gen, err := svf.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	var insts []svf.Inst
	var in svf.Inst
	for i := 0; i < 20_000; i++ {
		gen.Next(&in)
		insts = append(insts, in)
	}
	var buf bytes.Buffer
	if err := svf.WriteTrace(&buf, insts); err != nil {
		t.Fatal(err)
	}
	reloaded, err := svf.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := svf.Options{Policy: svf.PolicySVF, StackPorts: 2, MaxInsts: len(insts)}
	live, err := svf.Run(prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := svf.RunTrace("gzip-replay", reloaded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if live.Cycles() != replayed.Cycles() {
		t.Errorf("replay (%d cycles) diverged from live run (%d)", replayed.Cycles(), live.Cycles())
	}
	if replayed.Bench != "gzip-replay" {
		t.Errorf("bench name = %q", replayed.Bench)
	}
}

func TestPublicAPIX86AndPrograms(t *testing.T) {
	alpha := svf.ByName("197.parser")
	x86 := svf.X86Variant(alpha)
	if x86.SubWordFrac == 0 {
		t.Error("X86Variant should enable partial-word references")
	}
	prog, err := svf.BuildProgram(x86)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Prof != x86 {
		t.Error("BuildProgram should keep the profile it built")
	}
	// The built x86 program's trace carries the partial-word references.
	g, err := svf.NewGenerator(x86)
	if err != nil {
		t.Fatal(err)
	}
	var in svf.Inst
	partial := 0
	for i := 0; i < 50_000 && g.Next(&in); i++ {
		if in.IsMem() && in.Size < 8 {
			partial++
		}
	}
	if partial == 0 {
		t.Error("x86 variant emitted no partial-word references")
	}
}

func TestPublicAPIRSE(t *testing.T) {
	r, err := svf.Run(svf.ByName("186.crafty"), svf.Options{
		Policy: svf.PolicyRSE, StackPorts: 2, MaxInsts: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.RSE == nil || r.RSE.RegRefs == 0 {
		t.Error("RSE run produced no register references")
	}
}

func TestPublicAPISweep(t *testing.T) {
	res, err := svf.Sweep(svf.ExperimentConfig{
		MaxInsts:   20_000,
		Benchmarks: []*svf.Profile{svf.ByName("164.gzip")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Error("empty sweep")
	}
}

// TestFacadeExperimentsSmoke drives every experiment forwarder once with a
// minimal budget, ensuring the public API surface works end to end.
func TestFacadeExperimentsSmoke(t *testing.T) {
	cfg := svf.ExperimentConfig{
		MaxInsts:     15_000,
		TrafficInsts: 60_000,
		Benchmarks:   []*svf.Profile{svf.ByName("164.gzip")},
	}
	if r, err := svf.Fig1(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig1: %v", err)
	}
	if r, err := svf.Fig2(cfg); err != nil || len(r.Series) != 1 {
		t.Errorf("Fig2: %v", err)
	}
	if r, err := svf.Fig3(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig3: %v", err)
	}
	if r, err := svf.Fig5(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig5: %v", err)
	}
	if r, err := svf.Fig6(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig6: %v", err)
	}
	if r, err := svf.Fig7(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig7: %v", err)
	}
	if r, err := svf.Fig8(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig8: %v", err)
	}
	if r, err := svf.Fig9(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Fig9: %v", err)
	}
	if r, err := svf.Table3(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Table3: %v", err)
	}
	if r, err := svf.Table4(cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("Table4: %v", err)
	}
	x86cfg := cfg
	if r, err := svf.X86(x86cfg); err != nil || len(r.Rows) != 1 {
		t.Errorf("X86: %v", err)
	}
}

// ExampleCharacterize reproduces the paper's workload-characterisation
// methodology (§2) on one benchmark.
func ExampleCharacterize() {
	c, _ := svf.Characterize(svf.ByName("256.bzip2"), 200_000)
	fmt.Println(c.StackFrac() > 0.3)      // most memory refs hit the stack
	fmt.Println(c.MeanOffsetBytes() < 64) // ...very close to the TOS
	fmt.Println(c.Within8KB() > 0.99)     // ...within one 8KB window
	// Output:
	// true
	// true
	// true
}

// ExampleStackTraffic shows the liveness-semantics traffic gap of Table 3.
func ExampleStackTraffic() {
	gcc := svf.ByName("176.gcc")
	scIn, _, _, _ := svf.StackTraffic(gcc, svf.PolicyStackCache, 2<<10, 300_000, 0)
	svfIn, _, _, _ := svf.StackTraffic(gcc, svf.PolicySVF, 2<<10, 300_000, 0)
	fmt.Println(svfIn*5 < scIn) // the SVF fills far fewer quadwords
	// Output: true
}

func TestPublicAPIJournaledCampaign(t *testing.T) {
	dir := t.TempDir()
	prof := svf.ByName("175.vpr")
	opt := svf.Options{MaxInsts: 20_000}

	j, rep, err := svf.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, restored := svf.NewJournaledRunCache(j, rep)
	if restored.Restored() != 0 {
		t.Fatalf("fresh journal restored %d cells", restored.Restored())
	}
	first, err := c.Run(nil, prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep2, err := svf.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, restored2 := svf.NewJournaledRunCache(j2, rep2)
	if restored2.Runs != 1 {
		t.Fatalf("restore stats = %+v, want the completed run", restored2)
	}
	again, err := c2.Run(nil, prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Pipe.Cycles != first.Pipe.Cycles || again.Pipe.Committed != first.Pipe.Committed {
		t.Errorf("restored run differs: %d/%d cycles, %d/%d committed",
			again.Pipe.Cycles, first.Pipe.Cycles, again.Pipe.Committed, first.Pipe.Committed)
	}
	if st := c2.Stats(); st.Misses != 0 {
		t.Errorf("restored cell simulated (%+v)", st)
	}
}
