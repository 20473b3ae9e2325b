package trace

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"svf/internal/isa"
)

func sampleInsts(n int, seed uint64) []isa.Inst {
	rng := rand.New(rand.NewPCG(seed, seed))
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{
			PC:    rng.Uint64(),
			Addr:  rng.Uint64(),
			Imm:   int32(rng.Int32()),
			Kind:  isa.Kind(rng.IntN(isa.NumKinds)),
			Base:  uint8(rng.IntN(isa.NumRegs)),
			Dst:   uint8(rng.IntN(isa.NumRegs)),
			Src1:  uint8(rng.IntN(isa.NumRegs)),
			Src2:  uint8(rng.IntN(isa.NumRegs)),
			Size:  8,
			Flags: uint8(rng.IntN(8)),
		}
	}
	return out
}

// drain reads a stream to its end.
func drain(s Stream) []isa.Inst {
	var out []isa.Inst
	var in isa.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

func TestSliceStream(t *testing.T) {
	insts := sampleInsts(10, 1)
	s := NewSliceStream(insts)
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	got := drain(s)
	if !reflect.DeepEqual(got, insts) {
		t.Fatal("collected stream differs from source")
	}
	var in isa.Inst
	if s.Next(&in) {
		t.Fatal("exhausted stream should return false")
	}
	s.Reset()
	if !s.Next(&in) || in != insts[0] {
		t.Fatal("Reset should replay from the start")
	}
}

func TestLimit(t *testing.T) {
	insts := sampleInsts(10, 2)
	l := &Limit{S: NewSliceStream(insts), N: 3}
	got := drain(l)
	if len(got) != 3 {
		t.Fatalf("Limit yielded %d, want 3", len(got))
	}
	l.Reset()
	if got2 := drain(l); len(got2) != 3 || !reflect.DeepEqual(got, got2) {
		t.Fatal("Limit.Reset should replay identically")
	}
}

func TestRoundTrip(t *testing.T) {
	insts := sampleInsts(257, 4)
	var buf bytes.Buffer
	if err := Write(&buf, insts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, insts) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty trace, got %d records", len(got))
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOTATRACEFILE123"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadTruncated(t *testing.T) {
	insts := sampleInsts(5, 5)
	var buf bytes.Buffer
	if err := Write(&buf, insts); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 4, len(magic), len(magic) + 8, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Read of %d-byte prefix should fail", cut)
		}
	}
}

func TestReadImplausibleCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := Read(&buf); err == nil {
		t.Fatal("implausible count should fail")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	// Property: encodeRecord/decodeRecord are inverses for every field
	// combination.
	f := func(pc, addr uint64, imm int32, kind, base, dst, src1, src2, size, flags uint8) bool {
		in := isa.Inst{
			PC: pc, Addr: addr, Imm: imm,
			Kind: isa.Kind(kind % uint8(isa.NumKinds)),
			Base: base, Dst: dst, Src1: src1, Src2: src2, Size: size, Flags: flags,
		}
		buf := make([]byte, recSize)
		encodeRecord(buf, &in)
		var out isa.Inst
		decodeRecord(buf, &out)
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
