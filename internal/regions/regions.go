// Package regions models the Alpha-style virtual address space layout the
// paper assumes (§2): the stack is allocated at a system-defined virtual
// address and grows down toward address zero; read-only data, code, and
// global data occupy a middle range; and the heap grows up from just above
// the global data region.
//
// The package classifies memory references both by the region they touch
// (stack, global, heap, …) and by the access method used to reach the stack
// ($sp-relative, $fp-relative, or through a general-purpose register), which
// is the breakdown reported in Figure 1.
package regions

import (
	"fmt"

	"svf/internal/isa"
)

// Region identifies an address-space region.
type Region uint8

const (
	// RegionStack is the downward-growing run-time stack.
	RegionStack Region = iota
	// RegionGlobal is the static global data region (.data).
	RegionGlobal
	// RegionROData is the read-only data region (.rdata).
	RegionROData
	// RegionText is the code region (.text).
	RegionText
	// RegionHeap is the dynamically allocated heap.
	RegionHeap
	// RegionOther is anything outside the mapped regions.
	RegionOther
	numRegions
)

// NumRegions is the number of distinct regions.
const NumRegions = int(numRegions)

// String returns the region's conventional name.
func (r Region) String() string {
	switch r {
	case RegionStack:
		return "stack"
	case RegionGlobal:
		return "global"
	case RegionROData:
		return "rdata"
	case RegionText:
		return "text"
	case RegionHeap:
		return "heap"
	case RegionOther:
		return "other"
	default:
		return fmt.Sprintf("region(%d)", uint8(r))
	}
}

// Method identifies how a stack reference reaches memory.
type Method uint8

const (
	// MethodSP is a ±IMM($sp) reference.
	MethodSP Method = iota
	// MethodFP is a ±IMM($fp) reference.
	MethodFP
	// MethodGPR is a reference through any other general-purpose register.
	MethodGPR
	numMethods
)

// NumMethods is the number of distinct access methods.
const NumMethods = int(numMethods)

// String returns the access method's conventional name.
func (m Method) String() string {
	switch m {
	case MethodSP:
		return "$sp"
	case MethodFP:
		return "$fp"
	case MethodGPR:
		return "$gpr"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// Default layout constants. The concrete values are arbitrary (any layout
// with the right ordering works); they mirror the shape of the Alpha layout:
// text < rdata < global < heap < … < stack base.
const (
	// DefaultTextBase is the base of the code region.
	DefaultTextBase uint64 = 0x0000_0001_2000_0000
	// DefaultTextSize is the size of the code region.
	DefaultTextSize uint64 = 16 << 20
	// DefaultRODataBase is the base of the read-only data region.
	DefaultRODataBase uint64 = 0x0000_0001_2100_0000
	// DefaultRODataSize is the size of the read-only data region.
	DefaultRODataSize uint64 = 16 << 20
	// DefaultGlobalBase is the base of the global data region.
	DefaultGlobalBase uint64 = 0x0000_0001_4000_0000
	// DefaultGlobalSize is the size of the global data region.
	DefaultGlobalSize uint64 = 64 << 20
	// DefaultHeapBase is the base of the heap, just above global data.
	DefaultHeapBase uint64 = 0x0000_0001_8000_0000
	// DefaultHeapSize is the maximum heap size.
	DefaultHeapSize uint64 = 1 << 30
	// DefaultStackBase is the stack base: the highest stack address plus
	// one; the stack grows down from here toward zero.
	DefaultStackBase uint64 = 0x0000_0011_ff00_0000
	// DefaultStackMax is the maximum stack size.
	DefaultStackMax uint64 = 512 << 20
)

// Layout describes one process's address-space map.
type Layout struct {
	TextBase, TextSize     uint64
	RODataBase, RODataSize uint64
	GlobalBase, GlobalSize uint64
	HeapBase, HeapSize     uint64
	// StackBase is one past the highest valid stack address; valid stack
	// addresses are in [StackBase-StackMax, StackBase).
	StackBase, StackMax uint64
}

// DefaultLayout returns the standard layout used by all bundled workloads.
func DefaultLayout() Layout {
	return Layout{
		TextBase: DefaultTextBase, TextSize: DefaultTextSize,
		RODataBase: DefaultRODataBase, RODataSize: DefaultRODataSize,
		GlobalBase: DefaultGlobalBase, GlobalSize: DefaultGlobalSize,
		HeapBase: DefaultHeapBase, HeapSize: DefaultHeapSize,
		StackBase: DefaultStackBase, StackMax: DefaultStackMax,
	}
}

// Classify returns the region containing addr.
func (l *Layout) Classify(addr uint64) Region {
	switch {
	case addr < l.StackBase && addr >= l.StackBase-l.StackMax:
		return RegionStack
	case addr >= l.GlobalBase && addr < l.GlobalBase+l.GlobalSize:
		return RegionGlobal
	case addr >= l.RODataBase && addr < l.RODataBase+l.RODataSize:
		return RegionROData
	case addr >= l.TextBase && addr < l.TextBase+l.TextSize:
		return RegionText
	case addr >= l.HeapBase && addr < l.HeapBase+l.HeapSize:
		return RegionHeap
	default:
		return RegionOther
	}
}

// InStack reports whether addr lies in the stack region. It is one
// subtract-and-compare, small enough to inline into the per-reference
// loops that call it; the pointer receiver keeps those calls from
// copying the Layout.
func (l *Layout) InStack(addr uint64) bool { return addr-(l.StackBase-l.StackMax) < l.StackMax }

// MethodOf returns the access method of a memory reference based on its
// base register.
func MethodOf(base uint8) Method {
	switch base {
	case isa.RegSP:
		return MethodSP
	case isa.RegFP:
		return MethodFP
	default:
		return MethodGPR
	}
}
