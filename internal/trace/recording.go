package trace

import (
	"context"
	"math"
	"unsafe"

	"svf/internal/isa"
)

// Compact in-memory recordings. A workload's dynamic stream repeats a
// small set of distinct instruction shapes — the bundled workloads have
// 375 to 5,416 in their first 2M instructions — and only a load's or a
// store's address changes from one execution of a shape to the next, and
// rarely by much: stack references stay near the top of stack, and a
// static load or store keeps touching addresses close to its first one. A
// Recording therefore keeps a dictionary of the distinct shapes (a load or
// store with the address of its first execution as its base), one 16-bit
// shape id per instruction whose top bit marks a load or store, and per
// load or store one 16-bit word offset from its shape's base. An address
// that is no whole number of words within ±32767 of the base escapes to a
// stream of full addresses. That is 2.7 to 4.6 bytes per instruction on
// the bundled workloads, against 32 for a flat []isa.Inst.

// MaxShapes is how many distinct shapes a Recording can name: an id is
// 16 bits, and its top bit marks a load or store.
const MaxShapes = 1 << 15

// memBit marks a load's or store's id: replay takes its Addr from the
// address streams.
const memBit = 1 << 15

// farOffset is the offset of a load or store whose address is in the far
// stream instead: the one int16 that is not a word offset within reach.
const farOffset = math.MinInt16

// Per-item memory of a Recording's parts. A shape costs its instruction
// and its $sp-adjustment flag.
const (
	idBytes     = 2
	offsetBytes = 2
	addrBytes   = 8
	shapeBytes  = int64(unsafe.Sizeof(isa.Inst{})) + 1
)

// Recording is a compact record of a stream's first Len instructions.
// Record builds one; Replay streams any prefix of it. A Recording is
// immutable once built, so any number of replays may share it.
type Recording struct {
	// shapes is the dictionary; a load or store has its base, the address
	// of its first execution, as its Addr.
	shapes []isa.Inst
	// spAdj flags each shape that is a $sp adjustment, for RefReader.
	spAdj []bool
	ids   []uint16 // per instruction: its shape's index, | memBit for a load or store
	// offs holds per load or store, in program order, its address as a
	// word offset from its shape's base, or farOffset when far holds the
	// address instead. Both streams are in chunks of addrChunk; only the
	// last chunk is shorter.
	offs [][]int16
	far  [][]uint64
}

// newRecording assembles a Recording from its parts.
func newRecording(shapes []isa.Inst, ids []uint16, a *addrStreams) *Recording {
	spAdj := make([]bool, len(shapes))
	for i := range shapes {
		spAdj[i] = shapes[i].Kind == isa.KindSPAdjust
	}
	return &Recording{shapes: shapes, spAdj: spAdj, ids: ids, offs: a.offs.done(), far: a.far.done()}
}

// Len returns the number of recorded instructions.
func (r *Recording) Len() int { return len(r.ids) }

// Bytes returns the memory the recording's ids, address streams and
// dictionary hold. Every part is sized exactly, so this is what it costs.
func (r *Recording) Bytes() int64 {
	b := int64(cap(r.ids))*idBytes + int64(cap(r.shapes))*shapeBytes
	for _, c := range r.offs {
		b += int64(cap(c)) * offsetBytes
	}
	for _, c := range r.far {
		b += int64(cap(c)) * addrBytes
	}
	return b
}

// ShapeLimit returns the most shapes a recording of n instructions may
// name so that its worst case — every instruction a load or store whose
// address escapes to the far stream, and the dictionary full — still fits
// in budget bytes: at most MaxShapes, and 0 when n is negative or the ids
// and addresses alone could overflow the budget. A Recording made by
// Record(s, n, ShapeLimit(n, budget)) never holds more than budget bytes.
func ShapeLimit(n int, budget int64) int {
	if n < 0 {
		return 0
	}
	room := budget - int64(n)*(idBytes+offsetBytes+addrBytes)
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
	r := newRecorder()
	addrs := newAddrStreams(n)
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
		}
		f := &r.front[uint(k.pc>>2)%frontSize]
		if *f == 0 || r.keys[*f-1] != k {
			if !r.lookup(k, &in, f, maxShapes) {
				return nil, nil
			}
		}
		id := *f - 1
		if mem != 0 {
			addrs.add(r.shapes[id].Addr, in.Addr)
		}
		ids[i] = id | mem
	}
	shapes := make([]isa.Inst, len(r.shapes))
	copy(shapes, r.shapes)
	return newRecording(shapes, ids, addrs), nil
}

// Replay returns a stream of the recording's first n instructions (all of
// them when n exceeds Len). It allocates only the stream itself.
func (r *Recording) Replay(n int) *Replay {
	return &Replay{
		shapes: r.shapes, spAdj: r.spAdj, ids: r.ids[:min(max(n, 0), len(r.ids))],
		offs: cursor[int16]{chunks: r.offs}, far: cursor[uint64]{chunks: r.far},
	}
}

// Replay streams a prefix of a Recording.
type Replay struct {
	shapes []isa.Inst
	spAdj  []bool
	ids    []uint16
	offs   cursor[int16]
	far    cursor[uint64]
	pos    int // next id
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
		s.addr(in)
	}
	return true
}

// addr sets the address of the load or store in, a copy of its shape: the
// shape's base plus the next offset, or the next far address.
func (s *Replay) addr(in *isa.Inst) {
	if off := s.offs.read(); off != farOffset {
		in.Addr += uint64(int64(off) * isa.WordSize)
	} else {
		in.Addr = s.far.read()
	}
}

// nextRef is Next over the ids before end that RefReader yields: it skips
// every instruction but loads, stores and $sp adjustments, and returns the
// position of the one it read. At the end it returns end.
func (s *Replay) nextRef(in *isa.Inst, end int) (int, bool) {
	ids := s.ids[:end]
	for p := s.pos; p < len(ids); p++ {
		id := ids[p]
		switch {
		case id&memBit != 0:
			s.pos = p + 1
			*in = s.shapes[id&^memBit]
			s.addr(in)
			return p, true
		case s.spAdj[id]:
			s.pos = p + 1
			*in = s.shapes[id]
			return p, true
		}
	}
	s.pos = len(ids)
	return s.pos, false
}

// Reset rewinds the replay to its first instruction.
func (s *Replay) Reset() {
	s.pos = 0
	s.offs = cursor[int16]{chunks: s.offs.chunks}
	s.far = cursor[uint64]{chunks: s.far.chunks}
}

// RefReader reads what a functional model of the stack side acts on —
// loads, stores and $sp adjustments — from a stream's first instructions,
// with their positions in the stream. Over a Replay it walks the ids and
// decodes only those instructions; over any other stream it reads every
// instruction.
type RefReader struct {
	rp       *Replay // s as a replay, or nil
	s        Stream
	pos, end int // over any other stream: instructions read, and the most to read
}

// NewRefReader returns a reader of the first n instructions of s, which
// must not have been read yet.
func NewRefReader(s Stream, n int) RefReader {
	n = max(n, 0)
	if rp, ok := s.(*Replay); ok {
		return RefReader{rp: rp, end: min(n, len(rp.ids))}
	}
	return RefReader{s: s, end: n}
}

// Next fills *in with the next load, store or $sp adjustment and returns
// its position in the stream; it returns false when the instructions to
// read are exhausted.
func (r *RefReader) Next(in *isa.Inst) (int, bool) {
	if r.rp != nil {
		return r.rp.nextRef(in, r.end)
	}
	for r.pos < r.end {
		if !r.s.Next(in) {
			r.end = r.pos
			break
		}
		r.pos++
		if in.IsMem() || in.Kind == isa.KindSPAdjust {
			return r.pos - 1, true
		}
	}
	return r.pos, false
}

// Pos returns how many instructions of the stream have been read: after
// Next returns a position p, p+1; once it returns false, the number of
// instructions there were.
func (r *RefReader) Pos() int {
	if r.rp != nil {
		return r.rp.pos
	}
	return r.pos
}

// offsetOf returns a's word offset from base, when it is a whole number of
// words within ±32767.
func offsetOf(base, a uint64) (int16, bool) {
	d := int64(a - base)
	if w := d / isa.WordSize; d%isa.WordSize == 0 && -math.MaxInt16 <= w && w <= math.MaxInt16 {
		return int16(w), true
	}
	return 0, false
}

// addrChunk is the most items a chunk of a recording's address streams
// holds.
const addrChunk = 1 << 16

// farFirst is the capacity of a new chunk of the far stream, which grows by
// need: most recordings hold few far addresses.
const farFirst = 1 << 8

// addrStreams gathers a recording's address streams.
type addrStreams struct {
	offs chunks[int16]
	far  chunks[uint64]
}

// newAddrStreams returns the address streams of a recording of up to n
// instructions: an offset chunk starts at addrChunk items, or n if that is
// smaller.
func newAddrStreams(n int) *addrStreams {
	return &addrStreams{offs: chunks[int16]{first: min(n, addrChunk)}, far: chunks[uint64]{first: farFirst}}
}

// add appends the address a of a load or store whose shape has base as its
// base.
func (s *addrStreams) add(base, a uint64) {
	off, ok := offsetOf(base, a)
	if !ok {
		off = farOffset
		s.far.add(a)
	}
	s.offs.add(off)
}

// chunks gathers one address stream: full chunks of addrChunk items, then
// the current one.
type chunks[T int16 | uint64] struct {
	full  [][]T
	cur   []T
	first int // the capacity of a new chunk
}

// add appends v, making room first when the current chunk is full.
func (c *chunks[T]) add(v T) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, v)
}

// grow makes room in a full current chunk. A new chunk starts at capacity
// first and doubles while it is below addrChunk; a full one of addrChunk
// items is set aside.
func (c *chunks[T]) grow() {
	switch {
	case c.cur == nil:
		c.cur = make([]T, 0, c.first)
	case cap(c.cur) < addrChunk:
		c.cur = append(make([]T, 0, min(2*cap(c.cur), addrChunk)), c.cur...)
	default:
		c.full = append(c.full, c.cur)
		c.cur = make([]T, 0, c.first)
	}
}

// done returns the gathered chunks, the last one copied to its exact
// length.
func (c *chunks[T]) done() [][]T {
	if len(c.cur) == 0 {
		return c.full
	}
	if len(c.cur) < cap(c.cur) {
		c.cur = append(make([]T, 0, len(c.cur)), c.cur...)
	}
	return append(c.full, c.cur)
}

// cursor reads a chunked stream in order.
type cursor[T int16 | uint64] struct {
	chunks [][]T
	cur    []T // the chunk being read
	i      int // next item in cur
	next   int // next chunk
}

func (c *cursor[T]) read() T {
	if c.i == len(c.cur) {
		c.cur, c.i = c.chunks[c.next], 0
		c.next++
	}
	v := c.cur[c.i]
	c.i++
	return v
}

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
}

func newRecorder() *recorder { return &recorder{table: make([]uint16, 1<<10)} }

// lookup points the front-cache slot f at k's shape, adding in to the
// dictionary when it is new, so a new load's or store's address becomes
// its shape's base. It fails when the dictionary already holds max shapes.
func (r *recorder) lookup(k shapeKey, in *isa.Inst, f *uint16, max int) bool {
	slot := r.find(k)
	if *slot == 0 {
		if len(r.shapes) >= max {
			return false
		}
		r.shapes = append(r.shapes, *in)
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
