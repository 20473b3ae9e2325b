package faultinject

import (
	"math/rand"
	"reflect"
	"testing"

	"svf/internal/isa"
	"svf/internal/trace"
)

// sampleInsts builds a small deterministic instruction slice.
func sampleInsts(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:   0x1000 + uint64(i*4),
			Kind: isa.KindALU,
			Dst:  uint8(1 + i%8),
			Src1: isa.RegZero,
		}
	}
	return insts
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("bench=176.gcc,panic=50000,stall=123,eof=300,corrupt=9,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 7, Bench: "176.gcc", PanicCycle: 50000, StallCycle: 123, EOFAfter: 300, CorruptEvery: 9}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	again, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Errorf("String round trip changed the plan: %+v vs %+v", again, p)
	}
}

func TestParseEmptySpecIsInactive(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.Active() {
			t.Errorf("Parse(%q) produced an active plan: %+v", spec, p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"panic", "panic=x", "frob=1", "panic=-3"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestActiveAndMatches(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() || nilPlan.Matches("anything") {
		t.Error("nil plan must be inert")
	}
	if (&Plan{Bench: "gcc"}).Active() {
		t.Error("a plan with no fault fields is inactive")
	}
	p := &Plan{Bench: "crafty", PanicCycle: 1}
	if !p.Active() || !p.Matches("186.crafty.ref") || p.Matches("256.bzip2.graphic") {
		t.Errorf("bench matching wrong for %+v", p)
	}
	if !(&Plan{EOFAfter: 1}).Matches("anything") {
		t.Error("empty Bench must match every workload")
	}
}

// drain reads a stream to its end.
func drain(s trace.Stream) []isa.Inst {
	var out []isa.Inst
	var in isa.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

func TestWrapStreamEOFTruncates(t *testing.T) {
	p := &Plan{EOFAfter: 7}
	got := drain(p.WrapStream(trace.NewSliceStream(sampleInsts(100))))
	if len(got) != 7 {
		t.Errorf("EOFAfter=7 yielded %d instructions", len(got))
	}
}

func TestWrapStreamInertPlanReturnsSameStream(t *testing.T) {
	s := trace.NewSliceStream(sampleInsts(3))
	if (&Plan{PanicCycle: 99}).WrapStream(s) != trace.Stream(s) {
		t.Error("a plan without stream faults must not wrap the stream")
	}
	var nilPlan *Plan
	if nilPlan.WrapStream(s) != trace.Stream(s) {
		t.Error("nil plan must not wrap the stream")
	}
}

// Determinism is the package's contract: the same seed over the same stream
// must inject byte-identical faults on every execution.
func TestWrapStreamCorruptionIsDeterministic(t *testing.T) {
	base := sampleInsts(60)
	collect := func(seed int64) []isa.Inst {
		p := &Plan{Seed: seed, CorruptEvery: 3}
		return drain(p.WrapStream(trace.NewSliceStream(append([]isa.Inst(nil), base...))))
	}
	a, b := collect(42), collect(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	corrupted := 0
	for i := range a {
		if !reflect.DeepEqual(a[i], base[i]) {
			corrupted++
		}
	}
	if corrupted != 20 {
		t.Errorf("corrupted %d records, want every 3rd of 60 (20)", corrupted)
	}
	if reflect.DeepEqual(collect(43), a) {
		t.Error("a different seed should corrupt differently")
	}
}

func TestCorruptAlwaysChangesTheRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		in := sampleInsts(1)[0]
		orig := in
		Corrupt(rng, &in)
		if reflect.DeepEqual(in, orig) {
			t.Fatalf("iteration %d: Corrupt was a no-op", i)
		}
	}
}

func TestParseJournalFaults(t *testing.T) {
	p, err := Parse("kill-mid-write=7,journal-torn-tail=3,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 11, JournalKillWrite: 7, JournalTornTail: 3}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	again, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Errorf("String round trip changed the plan: %+v vs %+v", again, p)
	}
}

// Journal-level faults must not make a plan Active: Active gates the
// cache-bypassing simulation-injection path, and a journal-only plan
// targets storage, not the machine model.
func TestJournalFaultsDoNotActivateSimInjection(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.JournalActive() || nilPlan.JournalKillAt(1) || nilPlan.JournalTearAt(1) {
		t.Error("nil plan must be journal-inert")
	}
	p := &Plan{JournalKillWrite: 7}
	if p.Active() {
		t.Error("a journal-only plan must not activate simulation injection")
	}
	if !p.JournalActive() {
		t.Error("JournalActive must see kill-mid-write")
	}
	if !p.JournalKillAt(7) || p.JournalKillAt(6) || p.JournalKillAt(8) {
		t.Error("JournalKillAt must fire exactly on the configured append")
	}
	q := &Plan{JournalTornTail: 2}
	if q.Active() || !q.JournalActive() {
		t.Error("torn-tail plan: Active/JournalActive wrong")
	}
	if !q.JournalTearAt(2) || q.JournalTearAt(1) {
		t.Error("JournalTearAt must fire exactly on the configured append")
	}
	// A combined plan is both: sim faults inject, journal faults crash.
	b := &Plan{PanicCycle: 5, JournalKillWrite: 1}
	if !b.Active() || !b.JournalActive() {
		t.Error("combined plan must be active on both levels")
	}
}

func TestParseShardFaults(t *testing.T) {
	p, err := Parse("worker-kill=5,worker-stall=9,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 3, WorkerKill: 5, WorkerStall: 9}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	again, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Errorf("String round trip changed the plan: %+v vs %+v", again, p)
	}
}

// Shard faults target the worker fleet, not the machine model or the
// journal: they must activate neither of the other injection layers, and
// the At predicates fire on exactly the configured assignment ordinal.
func TestShardFaultsAreFleetOnly(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.WorkerKillAt(1) || nilPlan.WorkerStallAt(1) {
		t.Error("nil plan must be shard-inert")
	}
	p := &Plan{WorkerKill: 5}
	if p.Active() || p.JournalActive() {
		t.Error("a worker-kill plan must not activate sim or journal injection")
	}
	if !p.WorkerKillAt(5) || p.WorkerKillAt(4) || p.WorkerKillAt(6) || p.WorkerStallAt(5) {
		t.Error("WorkerKillAt must fire exactly on assignment 5, and only for kill")
	}
	q := &Plan{WorkerStall: 2}
	if q.Active() || q.JournalActive() {
		t.Error("a worker-stall plan must be shard-only")
	}
	if !q.WorkerStallAt(2) || q.WorkerStallAt(1) || q.WorkerKillAt(2) {
		t.Error("WorkerStallAt must fire exactly on assignment 2, and only for stall")
	}
}

func TestParseServiceFaults(t *testing.T) {
	p, err := Parse("accept-stall=2,client-disconnect=1,daemon-kill=3,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 11, AcceptStall: 2, ClientDisconnect: 1, DaemonKill: 3}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	again, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Errorf("String round trip changed the plan: %+v vs %+v", again, p)
	}
}

// Service faults target svfd's admission and streaming paths: they must
// not activate sim, journal, or shard injection, and each At predicate
// fires on exactly the configured ordinal.
func TestServiceFaultsAreDaemonOnly(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.AcceptStallAt(1) || nilPlan.ClientDisconnectAt(1) || nilPlan.DaemonKillAt(1) {
		t.Error("nil plan must be service-inert")
	}
	p := &Plan{AcceptStall: 4, ClientDisconnect: 2, DaemonKill: 7}
	if p.Active() || p.JournalActive() || p.WorkerKillAt(7) || p.WorkerStallAt(7) {
		t.Error("service plans must not activate sim, journal, or shard injection")
	}
	if !p.AcceptStallAt(4) || p.AcceptStallAt(3) || p.AcceptStallAt(5) {
		t.Error("AcceptStallAt must fire exactly on accepted job 4")
	}
	if !p.ClientDisconnectAt(2) || p.ClientDisconnectAt(1) {
		t.Error("ClientDisconnectAt must fire exactly on stream 2")
	}
	if !p.DaemonKillAt(7) || p.DaemonKillAt(6) {
		t.Error("DaemonKillAt must fire exactly on accepted job 7")
	}
}
