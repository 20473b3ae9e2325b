// Package trace defines the dynamic-instruction-stream abstraction that
// connects workload generators to the timing simulator, the compact
// Recording of a stream, and the binary file format that stores one.
//
// The simulator is trace-driven in the SimpleScalar functional-first style:
// the workload generator resolves effective addresses and branch outcomes,
// and the timing model replays the committed path, modelling wrong-path
// effects as front-end bubbles.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"svf/internal/isa"
)

// Stream produces dynamic instructions in program order.
type Stream interface {
	// Next fills *in with the next instruction and returns true, or
	// returns false when the stream is exhausted. The pointed-to value is
	// only valid until the following call.
	Next(in *isa.Inst) bool
}

// SliceStream streams instructions from a slice: a test seam, for tests
// that build streams from hand-made instructions.
type SliceStream struct {
	insts []isa.Inst
	pos   int
}

// NewSliceStream wraps insts (not copied) in a stream.
func NewSliceStream(insts []isa.Inst) *SliceStream {
	return &SliceStream{insts: insts}
}

// Next implements Stream.
func (s *SliceStream) Next(in *isa.Inst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*in = s.insts[s.pos]
	s.pos++
	return true
}

// Trace file format, version 2: a Recording's parts, little-endian, in
// this order:
//
//	magic       "SVFTRC2\x00"
//	count       u64: the instructions recorded
//	shapes      u32: the dictionary's size, at most MaxShapes
//	dictionary  one 28-byte record (appendRecord) per shape; loads and
//	            stores have Addr 0
//	ids         count u16 shape ids, the top bit marking a load or store
//	addresses   one u64 per marked id, in program order
//
// A file holds every address in full, where memory holds a word offset
// from the shape's base; Read takes each shape's first address as its
// base.
//
// Version 1 ("SVFTRC1\x00") stored every instruction as a 28-byte record.

const (
	magic   = "SVFTRC2\x00"
	magicV1 = "SVFTRC1\x00"
	recSize = 8 + 8 + 4 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 // 28 bytes
	hdrSize = len(magic) + 8 + 4
	// maxCount bounds the instruction count a file may claim.
	maxCount = 1 << 31
)

// ErrBadMagic is returned when decoding a file that is not an SVF trace.
var ErrBadMagic = errors.New("trace: bad magic (not an SVF trace file)")

var errVersion1 = errors.New("trace: a version 1 (SVFTRC1) trace file, which this version no longer reads: record the trace again")

var errTruncated = errors.New("trace: truncated trace file: it ends before the parts its header counts")

// Write encodes rec to w in the trace file format.
func Write(w io.Writer, rec *Recording) error {
	b := binary.LittleEndian.AppendUint64([]byte(magic), uint64(len(rec.ids)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.shapes)))
	for _, shape := range rec.shapes {
		if shape.IsMem() {
			shape.Addr = 0
		}
		b = appendRecord(b, &shape)
	}
	for _, id := range rec.ids {
		b = binary.LittleEndian.AppendUint16(b, id)
	}
	var in isa.Inst
	for s := rec.Replay(rec.Len()); s.Next(&in); {
		if in.IsMem() {
			b = binary.LittleEndian.AppendUint64(b, in.Addr)
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("trace: writing: %w", err)
	}
	return nil
}

// Read decodes a trace file written by Write. It allocates a part only once
// the input is known to hold it, and checks what it decodes, so replaying
// the recording it returns cannot index out of range. A version 1 file
// fails with an error that names its version, and a file that is no trace
// with ErrBadMagic.
func Read(r io.Reader) (*Recording, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	switch hdr := string(b[:min(len(b), len(magic))]); {
	case hdr == magicV1:
		return nil, errVersion1
	case hdr != magic:
		return nil, ErrBadMagic
	case len(b) < hdrSize:
		return nil, errTruncated
	}
	n, nshapes := binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint32(b[16:])
	b = b[hdrSize:]
	switch {
	case n > maxCount || nshapes > MaxShapes:
		return nil, fmt.Errorf("trace: implausible counts: %d instructions, %d shapes (at most %d)", n, nshapes, MaxShapes)
	case uint64(len(b)) < uint64(nshapes)*recSize+n*idBytes:
		return nil, errTruncated
	}
	shapes := make([]isa.Inst, nshapes)
	for i := range shapes {
		shapes[i] = decodeRecord(b[i*recSize:])
		if shapes[i].IsMem() && shapes[i].Addr != 0 {
			return nil, fmt.Errorf("trace: shape %d, a %v, has address %#x, not 0", i, shapes[i].Kind, shapes[i].Addr)
		}
	}
	b = b[len(shapes)*recSize:]
	// Each id must name a dictionary entry, and mark a load or store
	// exactly when its shape is one.
	ids := make([]uint16, n)
	mem := 0
	for i := range ids {
		id := binary.LittleEndian.Uint16(b[idBytes*i:])
		s, marked := int(id&^memBit), id&memBit != 0
		if s >= len(shapes) || marked != shapes[s].IsMem() {
			return nil, fmt.Errorf("trace: instruction %d: id %#x names no shape of its kind among %d", i, id, len(shapes))
		}
		if marked {
			mem++
		}
		ids[i] = id
	}
	if b = b[idBytes*len(ids):]; len(b) < addrBytes*mem {
		return nil, errTruncated
	}
	// A shape's base is its first address; each address is then stored as
	// Record stores it.
	addrs := newAddrStreams(len(ids))
	seen := make([]bool, len(shapes))
	for _, id := range ids {
		if id&memBit == 0 {
			continue
		}
		s, a := id&^memBit, binary.LittleEndian.Uint64(b)
		b = b[addrBytes:]
		if !seen[s] {
			seen[s], shapes[s].Addr = true, a
		}
		addrs.add(shapes[s].Addr, a)
	}
	return newRecording(shapes, ids, addrs), nil
}

// appendRecord appends in's 28-byte record; its last byte is reserved.
func appendRecord(b []byte, in *isa.Inst) []byte {
	b = binary.LittleEndian.AppendUint64(b, in.PC)
	b = binary.LittleEndian.AppendUint64(b, in.Addr)
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Imm))
	return append(b, uint8(in.Kind), in.Base, in.Dst, in.Src1, in.Src2, in.Size, in.Flags, 0)
}

func decodeRecord(buf []byte) isa.Inst {
	return isa.Inst{
		PC:    binary.LittleEndian.Uint64(buf[0:]),
		Addr:  binary.LittleEndian.Uint64(buf[8:]),
		Imm:   int32(binary.LittleEndian.Uint32(buf[16:])),
		Kind:  isa.Kind(buf[20]),
		Base:  buf[21],
		Dst:   buf[22],
		Src1:  buf[23],
		Src2:  buf[24],
		Size:  buf[25],
		Flags: buf[26],
	}
}
