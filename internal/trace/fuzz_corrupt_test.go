package trace_test

// External test package: faultinject imports trace, so exercising the
// codec against faultinject-corrupted records from inside package trace
// would be an import cycle.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"svf/internal/faultinject"
	"svf/internal/isa"
	"svf/internal/trace"
)

func corruptSample(seed int64, n, every int) []isa.Inst {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: 0x1000 + uint64(i*4), Kind: isa.KindLoad, Dst: uint8(1 + i%8),
			Base: isa.RegSP, Imm: int32(8 * (i % 4)), Addr: 0x11_fe00_0000 + uint64(8*(i%4)), Size: 8,
		}
		if every > 0 && i%every == 0 {
			faultinject.Corrupt(rng, &insts[i])
		}
	}
	return insts
}

// encodeSample records insts whole and encodes the recording.
func encodeSample(t testing.TB, insts []isa.Inst) []byte {
	t.Helper()
	rec := trace.Record(trace.NewSliceStream(insts), len(insts), trace.MaxShapes)
	var buf bytes.Buffer
	if err := trace.Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayAll reads every instruction of a recording.
func replayAll(rec *trace.Recording) []isa.Inst {
	var out []isa.Inst
	s := rec.Replay(rec.Len())
	var in isa.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

// Corrupted records — out-of-range kinds, bogus registers, flipped address
// bits — are still instructions; recording, the file format and replay
// must carry them through byte-faithfully so the simulator's containment
// (not the codec) is what deals with the damage.
func TestCorruptedRecordsRoundTrip(t *testing.T) {
	insts := corruptSample(7, 64, 3)
	rec, err := trace.Read(bytes.NewReader(encodeSample(t, insts)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayAll(rec), insts) {
		t.Error("corrupted records did not round-trip")
	}
}

// FuzzReadCorrupted seeds the decoder with recordings of
// faultinject-corrupted records and raw byte damage on top: the decoder
// must return an error or a recording, never panic, and every successful
// decode must replay in full and re-encode losslessly.
func FuzzReadCorrupted(f *testing.F) {
	for seed := int64(0); seed < 3; seed++ {
		b := encodeSample(f, corruptSample(seed, 16, 2))
		f.Add(b)
		// Truncated near its end, and with a damaged byte.
		f.Add(b[:len(b)-13])
		flipped := bytes.Clone(b)
		flipped[int(seed)%len(flipped)] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := replayAll(rec); len(got) != rec.Len() {
			t.Fatalf("replayed %d of %d instructions", len(got), rec.Len())
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, rec); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
