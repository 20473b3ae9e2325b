package isa

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNop:      "nop",
		KindALU:      "alu",
		KindMult:     "mult",
		KindLoad:     "load",
		KindStore:    "store",
		KindBranch:   "branch",
		KindJump:     "jump",
		KindCall:     "call",
		KindReturn:   "return",
		KindSPAdjust: "spadj",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind should include its value, got %q", got)
	}
}

func TestNumKindsMatchesEnum(t *testing.T) {
	if NumKinds != 10 {
		t.Fatalf("NumKinds = %d, want 10 (update tests if the ISA grew)", NumKinds)
	}
}

func TestIsMem(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		in := Inst{Kind: k}
		want := k == KindLoad || k == KindStore
		if got := in.IsMem(); got != want {
			t.Errorf("IsMem for %v = %v, want %v", k, got, want)
		}
	}
}

func TestIsCtl(t *testing.T) {
	ctl := map[Kind]bool{KindBranch: true, KindJump: true, KindCall: true, KindReturn: true}
	for k := Kind(0); int(k) < NumKinds; k++ {
		in := Inst{Kind: k}
		if got := in.IsCtl(); got != ctl[k] {
			t.Errorf("IsCtl for %v = %v, want %v", k, got, ctl[k])
		}
	}
}

func TestFlags(t *testing.T) {
	in := Inst{Kind: KindBranch, Flags: FlagTaken}
	if !in.Taken() {
		t.Error("Taken() should be true with FlagTaken")
	}
	in.Flags = 0
	if in.Taken() {
		t.Error("Taken() should be false without FlagTaken")
	}
	in = Inst{Kind: KindSPAdjust, Flags: FlagSPImmediate}
	if !in.SPImmediate() {
		t.Error("SPImmediate() should be true with FlagSPImmediate")
	}
}

func TestSPRelative(t *testing.T) {
	load := Inst{Kind: KindLoad, Base: RegSP}
	if !load.SPRelative() {
		t.Error("load with Base=RegSP should be SPRelative")
	}
	if (&Inst{Kind: KindLoad, Base: RegFP}).SPRelative() {
		t.Error("load with Base=RegFP should not be SPRelative")
	}
	// Non-memory instructions are never SP-relative even with Base set.
	if (&Inst{Kind: KindALU, Base: RegSP}).SPRelative() {
		t.Error("ALU op should not be SPRelative")
	}
}

func TestWritesSP(t *testing.T) {
	if !(&Inst{Kind: KindSPAdjust}).WritesSP() {
		t.Error("SPAdjust writes SP")
	}
	if !(&Inst{Kind: KindALU, Dst: RegSP}).WritesSP() {
		t.Error("ALU with Dst=SP writes SP")
	}
	if (&Inst{Kind: KindALU, Dst: 3}).WritesSP() {
		t.Error("ALU with Dst=r3 does not write SP")
	}
}

func TestRegisterConventions(t *testing.T) {
	if RegZero != 31 || RegSP != 30 || RegRA != 26 || RegFP != 15 {
		t.Fatalf("register conventions changed: zero=%d sp=%d ra=%d fp=%d", RegZero, RegSP, RegRA, RegFP)
	}
	if NumRegs != 32 {
		t.Fatalf("NumRegs = %d, want 32", NumRegs)
	}
	if WordSize != 8 {
		t.Fatalf("WordSize = %d, want 8 (64-bit architecture)", WordSize)
	}
}

func TestStringForms(t *testing.T) {
	mem := Inst{PC: 0x1000, Kind: KindLoad, Dst: 5, Imm: 16, Base: RegSP, Addr: 0x2000}
	if s := mem.String(); !strings.Contains(s, "load") || !strings.Contains(s, "16(r30)") {
		t.Errorf("mem string %q missing expected parts", s)
	}
	br := Inst{PC: 0x1000, Kind: KindBranch, Addr: 0x1040, Flags: FlagTaken}
	if s := br.String(); !strings.Contains(s, "taken=true") {
		t.Errorf("branch string %q missing taken", s)
	}
	sp := Inst{PC: 0x1000, Kind: KindSPAdjust, Imm: -64, Flags: FlagSPImmediate}
	if s := sp.String(); !strings.Contains(s, "-64") {
		t.Errorf("spadj string %q missing delta", s)
	}
	alu := Inst{PC: 0x1000, Kind: KindALU, Dst: 1, Src1: 2, Src2: 3}
	if s := alu.String(); !strings.Contains(s, "r1 <- r2, r3") {
		t.Errorf("alu string %q missing operands", s)
	}
}
