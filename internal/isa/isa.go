// Package isa defines the Alpha-like micro instruction set used by the
// simulator. It is a 64-bit, 32-register load/store architecture that
// preserves the properties the Stack Value File design depends on: a
// dedicated stack-pointer register, a ±IMM($sp) addressing mode that is
// recognisable at decode time, and explicit immediate stack-pointer
// adjustments at call and return boundaries.
package isa

import "fmt"

// Register conventions, following the Alpha OS/linkage conventions the paper
// assumes (§2).
const (
	// NumRegs is the number of architectural integer registers.
	NumRegs = 32

	// RegFP is the frame pointer ($fp, Alpha $15).
	RegFP = 15
	// RegRA is the return-address register (Alpha $26).
	RegRA = 26
	// RegSP is the stack pointer ($sp, Alpha $30).
	RegSP = 30
	// RegZero is the hardwired zero register (Alpha $31).
	RegZero = 31
)

// WordSize is the basic data size of the machine in bytes. The Alpha is a
// 64-bit architecture, so the SVF's natural status-bit granularity is a
// quadword (§3.3).
const WordSize = 8

// Kind enumerates dynamic instruction classes.
type Kind uint8

const (
	// KindNop is a no-op (also used for padding).
	KindNop Kind = iota
	// KindALU is a single-cycle integer operation.
	KindALU
	// KindMult is a multi-cycle integer multiply.
	KindMult
	// KindLoad is a memory load.
	KindLoad
	// KindStore is a memory store.
	KindStore
	// KindBranch is a conditional branch.
	KindBranch
	// KindJump is an unconditional direct jump.
	KindJump
	// KindCall is a subroutine call (writes the return address register).
	KindCall
	// KindReturn is a subroutine return (indirect jump through $ra).
	KindReturn
	// KindSPAdjust is a stack-pointer adjustment: $sp ← $sp + Imm when
	// FlagSPImmediate is set, otherwise $sp ← some computed value (which
	// forces the decode-stage interlock described in §3.1).
	KindSPAdjust
	numKinds
)

// String returns the mnemonic-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNop:
		return "nop"
	case KindALU:
		return "alu"
	case KindMult:
		return "mult"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindJump:
		return "jump"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	case KindSPAdjust:
		return "spadj"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NumKinds is the number of distinct instruction kinds.
const NumKinds = int(numKinds)

// Flag bits carried by a dynamic instruction.
const (
	// FlagTaken marks a control-flow instruction whose branch was taken.
	FlagTaken uint8 = 1 << iota
	// FlagSPImmediate marks a KindSPAdjust whose new value is computed by
	// adding an immediate constant to $sp; the decode stage can track it
	// speculatively without an interlock.
	FlagSPImmediate
)

// Inst is one dynamic (already-executed) instruction from a workload trace.
// Effective addresses and branch outcomes are pre-resolved by the functional
// front half of the workload generator; the timing model decides *when*
// things happen, not *what* happens.
type Inst struct {
	// PC is the instruction's address.
	PC uint64
	// Addr is the effective address for loads/stores, or the target
	// address for control-flow instructions.
	Addr uint64
	// Imm is the signed immediate: the offset for base+displacement
	// addressing, or the $sp delta for an immediate KindSPAdjust.
	Imm int32
	// Kind is the instruction class.
	Kind Kind
	// Base is the base register for memory addressing (RegSP for
	// $sp-relative references, RegFP or a general register otherwise).
	Base uint8
	// Dst is the destination register (RegZero if none).
	Dst uint8
	// Src1 and Src2 are source registers (RegZero if unused).
	Src1, Src2 uint8
	// Size is the access size in bytes for memory operations.
	Size uint8
	// Flags holds Flag* bits.
	Flags uint8
}

// IsMem reports whether the instruction accesses memory.
func (in *Inst) IsMem() bool { return in.Kind == KindLoad || in.Kind == KindStore }

// IsCtl reports whether the instruction is a control-flow instruction.
func (in *Inst) IsCtl() bool {
	switch in.Kind {
	case KindBranch, KindJump, KindCall, KindReturn:
		return true
	}
	return false
}

// Taken reports whether a control-flow instruction was taken.
func (in *Inst) Taken() bool { return in.Flags&FlagTaken != 0 }

// SPImmediate reports whether a KindSPAdjust uses the immediate form that
// the decode stage can track speculatively.
func (in *Inst) SPImmediate() bool { return in.Flags&FlagSPImmediate != 0 }

// SPRelative reports whether the instruction is a memory reference using
// the ±IMM($sp) addressing mode. Such references are identified in the
// pre-decode circuit and are candidates for morphing into register moves.
func (in *Inst) SPRelative() bool { return in.IsMem() && in.Base == RegSP }

// WritesSP reports whether the instruction writes the stack pointer.
func (in *Inst) WritesSP() bool { return in.Kind == KindSPAdjust || in.Dst == RegSP }

// String renders a compact human-readable form, useful in tests and debug
// dumps.
func (in *Inst) String() string {
	switch {
	case in.IsMem():
		return fmt.Sprintf("%#x %s r%d, %d(r%d) [addr=%#x]", in.PC, in.Kind, in.Dst, in.Imm, in.Base, in.Addr)
	case in.IsCtl():
		return fmt.Sprintf("%#x %s -> %#x taken=%v", in.PC, in.Kind, in.Addr, in.Taken())
	case in.Kind == KindSPAdjust:
		return fmt.Sprintf("%#x %s %+d imm=%v", in.PC, in.Kind, in.Imm, in.SPImmediate())
	default:
		return fmt.Sprintf("%#x %s r%d <- r%d, r%d", in.PC, in.Kind, in.Dst, in.Src1, in.Src2)
	}
}
