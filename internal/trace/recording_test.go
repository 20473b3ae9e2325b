package trace

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"svf/internal/isa"
)

// randInst draws an instruction with every field over its full range. A
// quarter are loads, a quarter stores, a quarter another valid kind and a
// quarter any kind value, out-of-range ones included.
func randInst(rng *rand.Rand) isa.Inst {
	var kind isa.Kind
	switch rng.IntN(4) {
	case 0:
		kind = isa.KindLoad
	case 1:
		kind = isa.KindStore
	case 2:
		kind = isa.Kind(rng.IntN(isa.NumKinds))
	default:
		kind = isa.Kind(rng.Uint32())
	}
	return isa.Inst{
		PC:    rng.Uint64(),
		Addr:  rng.Uint64(),
		Imm:   int32(rng.Uint32()),
		Kind:  kind,
		Base:  uint8(rng.Uint32()),
		Dst:   uint8(rng.Uint32()),
		Src1:  uint8(rng.Uint32()),
		Src2:  uint8(rng.Uint32()),
		Size:  uint8(rng.Uint32()),
		Flags: uint8(rng.Uint32()),
	}
}

// randStream draws n instructions that repeat a pool of shapes, as a
// program does: a repeated load or store gets a fresh address, anything
// else repeats whole. One in twenty is a fresh instruction, and pool
// entries may share a PC, so the recorder's front cache misses too.
func randStream(rng *rand.Rand, n int) []isa.Inst {
	pool := make([]isa.Inst, 1+rng.IntN(300))
	for i := range pool {
		pool[i] = randInst(rng)
		if i > 0 && rng.IntN(4) == 0 {
			pool[i].PC = pool[rng.IntN(i)].PC
		}
	}
	out := make([]isa.Inst, n)
	for i := range out {
		if rng.IntN(20) == 0 {
			out[i] = randInst(rng)
			continue
		}
		out[i] = pool[rng.IntN(len(pool))]
		if out[i].IsMem() {
			out[i].Addr = rng.Uint64()
		}
	}
	return out
}

// shapesOf counts the distinct shapes of insts.
func shapesOf(insts []isa.Inst) int {
	seen := map[isa.Inst]bool{}
	for _, in := range insts {
		if in.IsMem() {
			in.Addr = 0
		}
		seen[in] = true
	}
	return len(seen)
}

// TestRecordingReplaysEveryPrefix holds the compact form to exactness on
// random streams: recording the first n instructions and replaying any
// prefix m yields exactly the first min(m, n), every field and every kind
// included, and a reset replay starts over.
func TestRecordingReplaysEveryPrefix(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
		insts := randStream(rng, 1+rng.IntN(3000))
		n := rng.IntN(len(insts) + 1)
		rec := Record(NewSliceStream(insts), n, MaxShapes)
		if rec == nil {
			t.Fatalf("seed %d: a %d-instruction stream was not recorded", seed, n)
		}
		if rec.Len() != n {
			t.Fatalf("seed %d: Len = %d, want %d", seed, rec.Len(), n)
		}
		want := insts[:n]
		mem := 0
		for _, in := range want {
			if in.IsMem() {
				mem++
			}
		}
		if got, exact := rec.Bytes(), int64(2*n+8*mem+32*shapesOf(want)); got != exact {
			t.Errorf("seed %d: Bytes = %d, want %d (ids, addresses and dictionary, exactly sized)", seed, got, exact)
		}
		for _, m := range []int{0, 1, n / 2, n, n + 7, rng.IntN(n + 1), rng.IntN(n + 1)} {
			got := drain(rec.Replay(m))
			if !slices.Equal(got, want[:min(m, n)]) {
				t.Fatalf("seed %d: replay of %d from a %d-instruction recording diverges", seed, m, n)
			}
		}
		s := rec.Replay(n)
		drain(s)
		s.Reset()
		if got := drain(s); !slices.Equal(got, want) {
			t.Fatalf("seed %d: a reset replay diverges", seed)
		}
	}
}

// TestRecordStopsAtStreamEnd records past a stream's end: the recording
// holds what the stream had, sized to it.
func TestRecordStopsAtStreamEnd(t *testing.T) {
	insts := randStream(rand.New(rand.NewPCG(7, 7)), 500)
	rec := Record(NewSliceStream(insts), 2000, MaxShapes)
	if rec.Len() != 500 || !reflect.DeepEqual(drain(rec.Replay(2000)), insts) {
		t.Fatalf("recording past the end: Len %d, want the 500-instruction stream", rec.Len())
	}
	if short := Record(NewSliceStream(insts), 500, MaxShapes); rec.Bytes() != short.Bytes() {
		t.Errorf("Bytes = %d, want %d: a short stream's ids are sized to it", rec.Bytes(), short.Bytes())
	}
}

// distinctALU is n ALU instructions, each a shape of its own.
func distinctALU(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{PC: uint64(i) * 4, Kind: isa.KindALU}
	}
	return out
}

// TestRecordDeclinesTooManyShapes pins the id space: a stream with one
// shape more than the limit, or than MaxShapes, is not recorded.
func TestRecordDeclinesTooManyShapes(t *testing.T) {
	insts := distinctALU(MaxShapes + 1)
	if Record(NewSliceStream(insts), len(insts), MaxShapes+10) != nil {
		t.Error("recorded more shapes than a 16-bit id with a load/store bit can name")
	}
	if Record(NewSliceStream(insts), MaxShapes, MaxShapes) == nil {
		t.Error("declined exactly MaxShapes shapes")
	}
	if Record(NewSliceStream(insts), 101, 100) != nil {
		t.Error("recorded 101 shapes under a limit of 100")
	}
	if rec := Record(NewSliceStream(insts), 100, 100); rec == nil || !reflect.DeepEqual(drain(rec.Replay(100)), insts[:100]) {
		t.Error("a stream at its shape limit did not record exactly")
	}
}

// TestShapeLimitBoundsBytes holds ShapeLimit to its promise: whatever the
// stream, a recording made under ShapeLimit(n, budget) fits the budget,
// the worst case included (every instruction a load or store of a new
// shape).
func TestShapeLimitBoundsBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	worst := make([]isa.Inst, 4000)
	for i := range worst {
		worst[i] = isa.Inst{PC: uint64(i), Addr: rng.Uint64(), Kind: isa.KindLoad}
	}
	for trial := 0; trial < 200; trial++ {
		insts := worst
		if trial%2 == 1 {
			insts = randStream(rng, 4000)
		}
		n := rng.IntN(len(insts) + 1)
		budget := rng.Int64N(int64(42*n) + 64)
		limit := ShapeLimit(n, budget)
		if limit == 0 {
			if budget >= int64(10*n+32) {
				t.Fatalf("ShapeLimit(%d, %d) = 0, but one shape fits", n, budget)
			}
			continue
		}
		if rec := Record(NewSliceStream(insts), n, limit); rec != nil && rec.Bytes() > budget {
			t.Fatalf("recording of %d instructions under ShapeLimit %d holds %d bytes, over the %d budget", n, limit, rec.Bytes(), budget)
		}
	}
	if ShapeLimit(-1, 1<<30) != 0 || ShapeLimit(10, 0) != 0 {
		t.Error("a negative budget of instructions, or no bytes, must allow no recording")
	}
	if got := ShapeLimit(1000, 1<<40); got != MaxShapes {
		t.Errorf("ShapeLimit under a huge budget = %d, want MaxShapes", got)
	}
}
