// Package trace defines the dynamic-instruction-stream abstraction that
// connects workload generators to the timing simulator, plus a compact
// binary encoding for persisting traces to disk.
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

// Resetter is implemented by streams that can be replayed from the start,
// letting one workload be reused across machine configurations.
type Resetter interface {
	Reset()
}

// SliceStream replays instructions from an in-memory slice.
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

// Reset implements Resetter.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the stream.
func (s *SliceStream) Len() int { return len(s.insts) }

// Limit wraps a stream, truncating it after n instructions.
type Limit struct {
	S Stream
	N int
	c int
}

// Next implements Stream.
func (l *Limit) Next(in *isa.Inst) bool {
	if l.c >= l.N {
		return false
	}
	if !l.S.Next(in) {
		return false
	}
	l.c++
	return true
}

// Reset implements Resetter if the underlying stream does.
func (l *Limit) Reset() {
	l.c = 0
	if r, ok := l.S.(Resetter); ok {
		r.Reset()
	}
}

// Binary trace format: a magic header followed by fixed-width little-endian
// records. The format favours simplicity and replay speed over density.

const (
	magic   = "SVFTRC1\x00"
	recSize = 8 + 8 + 4 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 // 28 bytes
)

// ErrBadMagic is returned when decoding a file that is not an SVF trace.
var ErrBadMagic = errors.New("trace: bad magic (not an SVF trace file)")

// Write encodes the instructions to w in the binary trace format.
func Write(w io.Writer, insts []isa.Inst) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(insts)))
	if _, err := w.Write(cnt[:]); err != nil {
		return fmt.Errorf("trace: writing count: %w", err)
	}
	buf := make([]byte, recSize)
	for i := range insts {
		encodeRecord(buf, &insts[i])
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", i, err)
		}
	}
	return nil
}

// Read decodes a complete binary trace from r.
func Read(r io.Reader) ([]isa.Inst, error) {
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		return nil, ErrBadMagic
	}
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	const maxTrace = 1 << 31
	if n > maxTrace {
		return nil, fmt.Errorf("trace: implausible instruction count %d", n)
	}
	insts := make([]isa.Inst, n)
	buf := make([]byte, recSize)
	for i := range insts {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		decodeRecord(buf, &insts[i])
	}
	return insts, nil
}

func encodeRecord(buf []byte, in *isa.Inst) {
	binary.LittleEndian.PutUint64(buf[0:], in.PC)
	binary.LittleEndian.PutUint64(buf[8:], in.Addr)
	binary.LittleEndian.PutUint32(buf[16:], uint32(in.Imm))
	buf[20] = uint8(in.Kind)
	buf[21] = in.Base
	buf[22] = in.Dst
	buf[23] = in.Src1
	buf[24] = in.Src2
	buf[25] = in.Size
	buf[26] = in.Flags
	buf[27] = 0 // reserved
}

func decodeRecord(buf []byte, in *isa.Inst) {
	in.PC = binary.LittleEndian.Uint64(buf[0:])
	in.Addr = binary.LittleEndian.Uint64(buf[8:])
	in.Imm = int32(binary.LittleEndian.Uint32(buf[16:]))
	in.Kind = isa.Kind(buf[20])
	in.Base = buf[21]
	in.Dst = buf[22]
	in.Src1 = buf[23]
	in.Src2 = buf[24]
	in.Size = buf[25]
	in.Flags = buf[26]
}
