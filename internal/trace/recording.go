package trace

import (
	"context"
	"unsafe"

	"svf/internal/isa"
)

// Compact in-memory recordings. A workload's dynamic stream repeats a
// small set of distinct instruction shapes — the bundled workloads have
// 375 to 5,416 in their first 2M instructions — and only a load's or a
// store's address changes from one execution of a shape to the next. A
// Recording therefore keeps three parts: a dictionary of the distinct
// shapes (the instruction with Addr zeroed for loads and stores), one
// 16-bit shape id per instruction whose top bit marks a load or store,
// and the loads' and stores' addresses in program order. That is 4.7 to
// 6.3 bytes per instruction on the bundled workloads, against 32 for a
// flat []isa.Inst.

// MaxShapes is how many distinct shapes a Recording can name: an id is
// 16 bits, and its top bit marks a load or store.
const MaxShapes = 1 << 15

// memBit marks a load's or store's id: replay takes its Addr from the
// address stream.
const memBit = 1 << 15

// Per-item memory of a Recording's three parts.
const (
	idBytes    = 2
	addrBytes  = 8
	shapeBytes = int64(unsafe.Sizeof(isa.Inst{}))
)

// Recording is a compact record of a stream's first Len instructions.
// Record builds one; Replay streams any prefix of it. A Recording is
// immutable once built, so any number of replays may share it.
type Recording struct {
	shapes []isa.Inst // the dictionary; loads and stores have Addr 0
	ids    []uint16   // per instruction: its shape's index, | memBit for a load or store
	// addrs holds the loads' and stores' addresses in program order, in
	// chunks of addrChunk; only the last chunk is shorter.
	addrs [][]uint64
}

// Len returns the number of recorded instructions.
func (r *Recording) Len() int { return len(r.ids) }

// Bytes returns the memory the recording's ids, addresses and dictionary
// hold. Every part is sized exactly, so this is what it costs.
func (r *Recording) Bytes() int64 {
	b := int64(cap(r.ids))*idBytes + int64(cap(r.shapes))*shapeBytes
	for _, c := range r.addrs {
		b += int64(cap(c)) * addrBytes
	}
	return b
}

// ShapeLimit returns the most shapes a recording of n instructions may
// name so that its worst case — every instruction a load or store, and
// the dictionary full — still fits in budget bytes: at most MaxShapes,
// and 0 when n is negative or the ids and addresses alone could overflow
// the budget. A Recording made by Record(s, n, ShapeLimit(n, budget))
// never holds more than budget bytes.
func ShapeLimit(n int, budget int64) int {
	if n < 0 {
		return 0
	}
	room := budget - int64(n)*(idBytes+addrBytes)
	if room < shapeBytes {
		return 0
	}
	return int(min(room/shapeBytes, MaxShapes))
}

// ctxCheckMask is how often (in instructions, a power of two minus one)
// Record polls its context, as often as the functional traffic loop does.
const ctxCheckMask = 1<<16 - 1

// Record reads up to n instructions from s into a Recording, stopping
// early only if s ends. It returns nil if they have more than maxShapes
// distinct shapes (maxShapes is capped at MaxShapes). It polls ctx every
// 64K instructions, the first time before it reads any, and abandons the
// recording with ctx's error once ctx is done.
func Record(ctx context.Context, s Stream, n, maxShapes int) (*Recording, error) {
	if n < 0 {
		n = 0
	}
	maxShapes = min(maxShapes, MaxShapes)
	r := newRecorder(n)
	ids := make([]uint16, n)
	var in isa.Inst
	for i := range ids {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !s.Next(&in) {
			ids = append(make([]uint16, 0, i), ids[:i]...)
			break
		}
		k := keyOf(&in)
		var mem uint16
		if in.Kind == isa.KindLoad || in.Kind == isa.KindStore {
			k.addr = 0
			mem = memBit
			r.addAddr(in.Addr)
		}
		f := &r.front[uint(k.pc>>2)%frontSize]
		if *f == 0 || r.keys[*f-1] != k {
			if !r.lookup(k, &in, f, maxShapes) {
				return nil, nil
			}
		}
		ids[i] = *f - 1 | mem
	}
	shapes := make([]isa.Inst, len(r.shapes))
	copy(shapes, r.shapes)
	return &Recording{shapes: shapes, ids: ids, addrs: r.addrStream()}, nil
}

// Replay returns a stream of the recording's first n instructions (all of
// them when n exceeds Len). It allocates only the stream itself.
func (r *Recording) Replay(n int) *Replay {
	return &Replay{shapes: r.shapes, ids: r.ids[:min(max(n, 0), len(r.ids))], chunks: r.addrs}
}

// Replay streams a prefix of a Recording.
type Replay struct {
	shapes []isa.Inst
	ids    []uint16
	chunks [][]uint64
	addrs  []uint64 // the address chunk being read
	pos    int      // next id
	apos   int      // next address in addrs
	next   int      // next chunk
}

// Next implements Stream. The id's top bit, not the shape's Kind, says
// whether an address follows: it costs no load from the copied shape.
func (s *Replay) Next(in *isa.Inst) bool {
	if s.pos >= len(s.ids) {
		return false
	}
	id := s.ids[s.pos]
	s.pos++
	*in = s.shapes[id&^memBit]
	if id&memBit != 0 {
		if s.apos == len(s.addrs) {
			s.addrs, s.apos = s.chunks[s.next], 0
			s.next++
		}
		in.Addr = s.addrs[s.apos]
		s.apos++
	}
	return true
}

// Reset rewinds the replay to its first instruction.
func (s *Replay) Reset() { s.addrs, s.pos, s.apos, s.next = nil, 0, 0, 0 }

// shapeKey is a shape packed into words, for cheap comparison and
// hashing while recording: every field of isa.Inst but Addr fits in lo
// and hi.
type shapeKey struct {
	pc, addr, lo uint64
	hi           uint32
}

func keyOf(in *isa.Inst) shapeKey {
	return shapeKey{
		pc:   in.PC,
		addr: in.Addr,
		lo:   uint64(uint32(in.Imm)) | uint64(in.Kind)<<32 | uint64(in.Base)<<40 | uint64(in.Dst)<<48 | uint64(in.Src1)<<56,
		hi:   uint32(in.Src2) | uint32(in.Size)<<8 | uint32(in.Flags)<<16,
	}
}

// hash mixes every word of k.
func (k shapeKey) hash() uint64 {
	h := k.pc*0x9e3779b97f4a7c15 ^ k.addr*0xc2b2ae3d27d4eb4f ^ k.lo*0x165667b19e3779f9 ^ uint64(k.hi)*0xd6e8feb86659fd93
	return h ^ h>>29
}

// frontSize is the number of slots in the recorder's PC-indexed front
// cache (a power of two).
const frontSize = 1 << 12

// addrChunk is how many addresses a chunk of a recording's address stream
// holds.
const addrChunk = 1 << 16

// recorder finds shape ids while recording. Most instructions repeat the
// last shape seen at their PC, which the front cache answers with one
// compare of packed words; the rest look up an open-addressed hash table
// over every shape.
type recorder struct {
	shapes []isa.Inst
	keys   []shapeKey // keys[i] is shapes[i] packed
	// front holds, per PC slot, 1 + the id of the last shape seen there
	// (0: empty); table the same per hash slot, and grows to stay at most
	// half full.
	front [frontSize]uint16
	table []uint16
	// The address stream so far: full chunks, then the current one.
	chunks [][]uint64
	cur    []uint64
	// chunkCap is the capacity of a new chunk: addrChunk, or the
	// recording's length if that is smaller.
	chunkCap int
}

// newRecorder returns a recorder for a recording of up to n instructions.
func newRecorder(n int) *recorder {
	return &recorder{table: make([]uint16, 1<<10), chunkCap: min(n, addrChunk)}
}

func (r *recorder) addAddr(a uint64) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.chunks = append(r.chunks, r.cur)
		}
		r.cur = make([]uint64, 0, r.chunkCap)
	}
	r.cur = append(r.cur, a)
}

// addrStream returns the gathered address chunks, the last one copied to
// its exact length.
func (r *recorder) addrStream() [][]uint64 {
	if len(r.cur) == 0 {
		return r.chunks
	}
	if len(r.cur) < cap(r.cur) {
		r.cur = append(make([]uint64, 0, len(r.cur)), r.cur...)
	}
	return append(r.chunks, r.cur)
}

// lookup points the front-cache slot f at k's shape, adding in's shape
// (Addr taken from k) to the dictionary when it is new. It fails when the
// dictionary already holds max shapes.
func (r *recorder) lookup(k shapeKey, in *isa.Inst, f *uint16, max int) bool {
	slot := r.find(k)
	if *slot == 0 {
		if len(r.shapes) >= max {
			return false
		}
		shape := *in
		shape.Addr = k.addr
		r.shapes = append(r.shapes, shape)
		r.keys = append(r.keys, k)
		*slot = uint16(len(r.shapes))
		if 2*len(r.shapes) > len(r.table) {
			r.grow()
			slot = r.find(k)
		}
	}
	*f = *slot
	return true
}

// find returns k's hash-table slot, or the empty slot where k belongs.
func (r *recorder) find(k shapeKey) *uint16 {
	mask := uint64(len(r.table) - 1)
	for h := k.hash(); ; h++ {
		if slot := &r.table[h&mask]; *slot == 0 || r.keys[*slot-1] == k {
			return slot
		}
	}
}

// grow doubles the hash table, keeping it at most half full.
func (r *recorder) grow() {
	r.table = make([]uint16, 2*len(r.table))
	for i, k := range r.keys {
		*r.find(k) = uint16(i + 1)
	}
}
