package trace

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"svf/internal/isa"
)

// record is Record under a context that is never cancelled.
func record(s Stream, n, maxShapes int) *Recording {
	rec, err := Record(context.Background(), s, n, maxShapes)
	if err != nil {
		panic(err)
	}
	return rec
}

// cancelAfter is a stream that cancels its context once it has yielded
// n instructions, and counts what it yields.
type cancelAfter struct {
	Stream
	n, read int
	cancel  context.CancelFunc
}

func (s *cancelAfter) Next(in *isa.Inst) bool {
	if s.read == s.n {
		s.cancel()
	}
	s.read++
	return s.Stream.Next(in)
}

// TestRecordStopsWhenCancelled: Record polls its context before reading
// and then every 64K instructions, and abandons the recording with the
// context's error.
func TestRecordStopsWhenCancelled(t *testing.T) {
	insts := distinctALU(200_000)
	for i := range insts {
		insts[i].PC %= 1 << 12
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &cancelAfter{Stream: NewSliceStream(insts), n: 70_000, cancel: cancel}
	rec, err := Record(ctx, s, len(insts), MaxShapes)
	if rec != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Record = %v, %v; want no recording and context.Canceled", rec, err)
	}
	if s.read != 2<<16 {
		t.Errorf("read %d instructions, want %d: the first poll after the cancel stops it", s.read, 2<<16)
	}
	if rec, err := Record(ctx, s, len(insts), MaxShapes); rec != nil || err == nil || s.read != 2<<16 {
		t.Errorf("a cancelled context: Record = %v, %v after reading %d more; want nothing read", rec, err, s.read-2<<16)
	}
}

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
// program does: a repeated load or store gets another address (nearAddr),
// anything else repeats whole. One in twenty is a fresh instruction, and
// pool entries may share a PC, so the recorder's front cache misses too.
func randStream(rng *rand.Rand, n int) []isa.Inst {
	pool := make([]isa.Inst, 1+rng.IntN(300))
	for i := range pool {
		pool[i] = randInst(rng)
		if i > 0 && rng.IntN(4) == 0 {
			pool[i].PC = pool[rng.IntN(i)].PC
		}
	}
	out := make([]isa.Inst, n)
	drawn := make([]bool, len(pool))
	for i := range out {
		if rng.IntN(20) == 0 {
			out[i] = randInst(rng)
			continue
		}
		k := rng.IntN(len(pool))
		out[i] = pool[k]
		if out[i].IsMem() && drawn[k] {
			out[i].Addr = nearAddr(rng, pool[k].Addr)
		}
		drawn[k] = true
	}
	return out
}

// nearAddr draws the address of a later execution of a load or store
// whose first execution touched base: a whole number of words within
// ±32767 of it, exactly 32767 words either side, -32768 or +32768 words
// (one word out of reach, and -32768 the escape value itself), a byte off
// a word within reach, or any address at all.
func nearAddr(rng *rand.Rand, base uint64) uint64 {
	words := func(w int) uint64 { return base + uint64(int64(w)*isa.WordSize) }
	within := rng.IntN(2*math.MaxInt16+1) - math.MaxInt16
	switch rng.IntN(10) {
	case 0:
		return words(math.MaxInt16)
	case 1:
		return words(-math.MaxInt16)
	case 2:
		return words(math.MinInt16)
	case 3:
		return words(math.MaxInt16 + 1)
	case 4:
		return words(within) + 1
	case 5:
		return rng.Uint64()
	default:
		return words(within)
	}
}

// escapes reports whether a load's or store's address a is stored in full
// rather than as an offset from its shape's base: when it is not a whole
// number of words within ±32767 of the base.
func escapes(base, a uint64) bool {
	d := int64(a - base)
	return d%isa.WordSize != 0 || d/isa.WordSize < -math.MaxInt16 || d/isa.WordSize > math.MaxInt16
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

// memOf counts the loads and stores of insts, and how many of their
// addresses escape their shape's base, the first address of the shape.
func memOf(insts []isa.Inst) (mem, far int) {
	base := map[isa.Inst]uint64{}
	for _, in := range insts {
		if !in.IsMem() {
			continue
		}
		mem++
		a := in.Addr
		in.Addr = 0
		if b, ok := base[in]; !ok {
			base[in] = a
		} else if escapes(b, a) {
			far++
		}
	}
	return mem, far
}

// TestRecordingReplaysEveryPrefix holds the compact form to exactness on
// random streams: recording the first n instructions and replaying any
// prefix m yields exactly the first min(m, n), every field and every kind
// included, and a reset replay starts over. The recording's size is
// exactly its parts': 2 bytes per id, 2 per load's or store's offset, 8
// per address that escapes its base, and per shape 32 and its
// $sp-adjustment flag.
func TestRecordingReplaysEveryPrefix(t *testing.T) {
	var escaped int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
		insts := randStream(rng, 1+rng.IntN(3000))
		n := rng.IntN(len(insts) + 1)
		rec := record(NewSliceStream(insts), n, MaxShapes)
		if rec == nil {
			t.Fatalf("seed %d: a %d-instruction stream was not recorded", seed, n)
		}
		if rec.Len() != n {
			t.Fatalf("seed %d: Len = %d, want %d", seed, rec.Len(), n)
		}
		want := insts[:n]
		mem, far := memOf(want)
		escaped += far
		if got, exact := rec.Bytes(), int64(2*n+2*mem+8*far+33*shapesOf(want)); got != exact {
			t.Errorf("seed %d: Bytes = %d, want %d (ids, offsets, far addresses and dictionary, exactly sized)", seed, got, exact)
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
	if escaped == 0 {
		t.Error("no address escaped to the far stream: the streams do not test it")
	}
}

// TestRecordStopsAtStreamEnd records past a stream's end: the recording
// holds what the stream had, sized to it.
func TestRecordStopsAtStreamEnd(t *testing.T) {
	insts := randStream(rand.New(rand.NewPCG(7, 7)), 500)
	rec := record(NewSliceStream(insts), 2000, MaxShapes)
	if rec.Len() != 500 || !reflect.DeepEqual(drain(rec.Replay(2000)), insts) {
		t.Fatalf("recording past the end: Len %d, want the 500-instruction stream", rec.Len())
	}
	if short := record(NewSliceStream(insts), 500, MaxShapes); rec.Bytes() != short.Bytes() {
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
	if record(NewSliceStream(insts), len(insts), MaxShapes+10) != nil {
		t.Error("recorded more shapes than a 16-bit id with a load/store bit can name")
	}
	if record(NewSliceStream(insts), MaxShapes, MaxShapes) == nil {
		t.Error("declined exactly MaxShapes shapes")
	}
	if record(NewSliceStream(insts), 101, 100) != nil {
		t.Error("recorded 101 shapes under a limit of 100")
	}
	if rec := record(NewSliceStream(insts), 100, 100); rec == nil || !reflect.DeepEqual(drain(rec.Replay(100)), insts[:100]) {
		t.Error("a stream at its shape limit did not record exactly")
	}
}

// TestShapeLimitBoundsBytes holds ShapeLimit to its promise: whatever the
// stream, a recording made under ShapeLimit(n, budget) fits the budget,
// both worst cases included: every instruction a load of a new shape, and
// loads of one shape whose addresses all escape to the far stream.
func TestShapeLimitBoundsBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	// Every instruction a load of a new shape fills the dictionary; loads
	// of one shape at random addresses fill the far stream.
	newShapes, farAddrs := make([]isa.Inst, 4000), make([]isa.Inst, 4000)
	for i := range newShapes {
		newShapes[i] = isa.Inst{PC: uint64(i), Addr: rng.Uint64(), Kind: isa.KindLoad}
		farAddrs[i] = isa.Inst{PC: 4, Addr: rng.Uint64(), Kind: isa.KindLoad}
	}
	for trial := 0; trial < 300; trial++ {
		insts := newShapes
		switch trial % 3 {
		case 1:
			insts = farAddrs
		case 2:
			insts = randStream(rng, 4000)
		}
		n := rng.IntN(len(insts) + 1)
		budget := rng.Int64N(int64(42*n) + 64)
		limit := ShapeLimit(n, budget)
		if limit == 0 {
			if budget >= int64(12*n+33) {
				t.Fatalf("ShapeLimit(%d, %d) = 0, but one shape fits", n, budget)
			}
			continue
		}
		if rec := record(NewSliceStream(insts), n, limit); rec != nil && rec.Bytes() > budget {
			t.Fatalf("recording of %d instructions under ShapeLimit %d holds %d bytes, over the %d budget", n, limit, rec.Bytes(), budget)
		}
	}
	// The tightest budget that admits a recording at all still holds the
	// far-heavy one.
	for _, n := range []int{1, 100, len(farAddrs)} {
		tight := int64(sort.Search(1<<30, func(b int) bool { return ShapeLimit(n, int64(b)) > 0 }))
		if rec := record(NewSliceStream(farAddrs), n, ShapeLimit(n, tight)); rec == nil || rec.Bytes() > tight {
			t.Fatalf("%d loads of one shape at far addresses do not fit %d bytes, the least budget ShapeLimit admits", n, tight)
		}
	}
	if ShapeLimit(-1, 1<<30) != 0 || ShapeLimit(10, 0) != 0 {
		t.Error("a negative budget of instructions, or no bytes, must allow no recording")
	}
	if got := ShapeLimit(1000, 1<<40); got != MaxShapes {
		t.Errorf("ShapeLimit under a huge budget = %d, want MaxShapes", got)
	}
}

// ref is an instruction RefReader yields, at its position.
type ref struct {
	pos int
	in  isa.Inst
}

// readRefs drains r, and returns what it yielded and its final Pos.
func readRefs(r RefReader) ([]ref, int) {
	var out []ref
	var in isa.Inst
	for {
		p, ok := r.Next(&in)
		if !ok {
			return out, r.Pos()
		}
		if r.Pos() != p+1 {
			panic("Pos is not one past the position Next returned")
		}
		out = append(out, ref{p, in})
	}
}

// TestRefReaderYieldsReferences holds RefReader to its stream: over a
// replay and over any other stream, it yields exactly the loads, stores
// and $sp adjustments among the instructions it may read, at their
// positions, and ends at the count of instructions there were.
func TestRefReaderYieldsReferences(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x4ef5))
		insts := randStream(rng, 1+rng.IntN(3000))
		n := rng.IntN(len(insts) + 1)
		rec := record(NewSliceStream(insts), n, MaxShapes)
		for _, limit := range []int{-1, 0, 1, n / 2, n, n + 7, rng.IntN(n + 1)} {
			end := min(n, max(limit, 0))
			var want []ref
			for p, in := range insts[:end] {
				if in.IsMem() || in.Kind == isa.KindSPAdjust {
					want = append(want, ref{p, in})
				}
			}
			for name, s := range map[string]Stream{"replay": rec.Replay(n), "live stream": NewSliceStream(insts[:n])} {
				if got, pos := readRefs(NewRefReader(s, limit)); !slices.Equal(got, want) || pos != end {
					t.Fatalf("seed %d, %s of %d: %d references ending at %d, want %d ending at %d", seed, name, limit, len(got), pos, len(want), end)
				}
			}
		}
	}
}
