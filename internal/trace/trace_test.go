package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
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

// recordAll records every instruction of insts.
func recordAll(t testing.TB, insts []isa.Inst) *Recording {
	t.Helper()
	rec := record(NewSliceStream(insts), len(insts), MaxShapes)
	if rec == nil {
		t.Fatalf("a %d-instruction stream was not recorded", len(insts))
	}
	return rec
}

// encode writes rec in the trace file format.
func encode(t testing.TB, rec *Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeParts writes a trace file of the parts given, as they stand:
// shapes as the dictionary, then ids, then addrs in full. Unlike Write it
// takes parts that Record never builds.
func encodeParts(shapes []isa.Inst, ids []uint16, addrs []uint64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(magic), uint64(len(ids)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shapes)))
	for i := range shapes {
		b = appendRecord(b, &shapes[i])
	}
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint16(b, id)
	}
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	return b
}

func TestSliceStream(t *testing.T) {
	insts := sampleInsts(10, 1)
	s := NewSliceStream(insts)
	if got := drain(s); !reflect.DeepEqual(got, insts) {
		t.Fatal("collected stream differs from source")
	}
	var in isa.Inst
	if s.Next(&in) {
		t.Fatal("exhausted stream should return false")
	}
}

// TestRoundTrip holds the file format to the in-memory form: a decoded
// recording is the one encoded, chunks and capacities included, so it
// replays the same instructions and costs the same bytes. The streams
// range from one shape per instruction to a few hundred repeated ones,
// and the longest spans more than one address chunk.
func TestRoundTrip(t *testing.T) {
	streams := [][]isa.Inst{sampleInsts(257, 4)}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		streams = append(streams, randStream(rng, 1+rng.IntN(4000)))
	}
	streams = append(streams, randStream(rand.New(rand.NewPCG(99, 99)), 3*addrChunk))
	for i, insts := range streams {
		rec := recordAll(t, insts)
		got, err := Read(bytes.NewReader(encode(t, rec)))
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) || got.Bytes() != rec.Bytes() {
			t.Fatalf("stream %d: the decoded recording differs from the encoded one", i)
		}
		if !reflect.DeepEqual(drain(got.Replay(got.Len())), insts) {
			t.Fatalf("stream %d: the decoded recording replays other instructions", i)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	rec := recordAll(t, nil)
	got, err := Read(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || !reflect.DeepEqual(got, rec) {
		t.Fatalf("expected the empty recording, got %d instructions", got.Len())
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOTATRACEFILE123"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestReadVersion1 feeds Read a version 1 file, as the flat codec wrote
// it: the error names the version and asks for a new recording.
func TestReadVersion1(t *testing.T) {
	insts := sampleInsts(3, 6)
	v1 := binary.LittleEndian.AppendUint64([]byte(magicV1), uint64(len(insts)))
	for i := range insts {
		v1 = appendRecord(v1, &insts[i])
	}
	_, err := Read(bytes.NewReader(v1))
	if !errors.Is(err, errVersion1) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("err = %v, want the version 1 error", err)
	}
}

// TestReadTruncated cuts a file at every length short of its end: each
// cut fails.
func TestReadTruncated(t *testing.T) {
	full := encode(t, recordAll(t, randStream(rand.New(rand.NewPCG(5, 5)), 40)))
	for cut := 0; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Read of a %d-byte prefix of %d succeeded", cut, len(full))
		}
	}
}

func TestReadImplausibleCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Fatal("implausible count should fail")
	}
}

// TestReadBoundsAllocation claims the largest count Read accepts, 2^31
// instructions, and backs it with nothing: Read must fail having
// allocated under 1 MiB, not the gigabytes the count would take. The
// inputs stop after the count, after an empty dictionary's size, and after
// a full dictionary's size.
func TestReadBoundsAllocation(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint64([]byte(magic), maxCount)
	for _, in := range [][]byte{
		hdr,
		binary.LittleEndian.AppendUint32(bytes.Clone(hdr), 0),
		binary.LittleEndian.AppendUint32(bytes.Clone(hdr), MaxShapes),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a %d-byte input claiming %d instructions decoded", len(in), maxCount)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("a %d-byte input allocated %d bytes before failing, want under 1 MiB", len(in), got)
		}
	}
}

// TestReadRejectsInvalidRecordings writes recordings that Record never
// builds and checks that Read refuses each: replaying them would index
// out of range or yield instructions Record cannot have stored.
func TestReadRejectsInvalidRecordings(t *testing.T) {
	load := isa.Inst{PC: 4, Kind: isa.KindLoad, Size: 8}
	alu := isa.Inst{PC: 8, Kind: isa.KindALU}
	loadAt := load
	loadAt.Addr = 0x40
	for _, c := range []struct {
		name   string
		shapes []isa.Inst
		ids    []uint16
		addrs  []uint64
	}{
		{"an id past the dictionary", []isa.Inst{alu}, []uint16{0, 1}, nil},
		{"a load/store id past the dictionary", []isa.Inst{load}, []uint16{1 | memBit}, []uint64{8}},
		{"an unmarked load", []isa.Inst{load}, []uint16{0}, nil},
		{"a marked ALU instruction", []isa.Inst{alu}, []uint16{memBit}, []uint64{8}},
		{"a load shape with an address", []isa.Inst{loadAt}, []uint16{memBit}, []uint64{8}},
	} {
		if _, err := Read(bytes.NewReader(encodeParts(c.shapes, c.ids, c.addrs))); err == nil {
			t.Errorf("%s: Read accepted it", c.name)
		}
	}
	big := binary.LittleEndian.AppendUint64([]byte(magic), 0)
	big = binary.LittleEndian.AppendUint32(big, MaxShapes+1)
	big = append(big, make([]byte, (MaxShapes+1)*recSize)...)
	if _, err := Read(bytes.NewReader(big)); err == nil {
		t.Error("Read accepted a dictionary of more than MaxShapes shapes")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	// Property: appendRecord/decodeRecord are inverses for every field
	// combination.
	f := func(pc, addr uint64, imm int32, kind, base, dst, src1, src2, size, flags uint8) bool {
		in := isa.Inst{
			PC: pc, Addr: addr, Imm: imm,
			Kind: isa.Kind(kind % uint8(isa.NumKinds)),
			Base: base, Dst: dst, Src1: src1, Src2: src2, Size: size, Flags: flags,
		}
		buf := appendRecord(nil, &in)
		return len(buf) == recSize && decodeRecord(buf) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
