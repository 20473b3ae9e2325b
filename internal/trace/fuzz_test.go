package trace

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
)

// FuzzRead hardens the decoder: arbitrary input must produce an error or
// a recording that replays every instruction without a panic and
// re-encodes to itself — never a panic or a runaway allocation.
func FuzzRead(f *testing.F) {
	valid := encode(f, recordAll(f, sampleInsts(3, 99)))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte(magic))
	f.Add([]byte("garbage"))
	f.Add(append(bytes.Clone(valid), 0xff, 0x00))
	f.Add(encode(f, recordAll(f, randStream(rand.New(rand.NewPCG(8, 8)), 24))))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := drain(rec.Replay(rec.Len())); len(got) != rec.Len() {
			t.Fatalf("replayed %d of %d instructions", len(got), rec.Len())
		}
		again, err := Read(bytes.NewReader(encode(t, rec)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
