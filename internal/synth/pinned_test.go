//go:build !race

// Recalibrating every pinned profile takes seconds without the race
// detector and minutes with it; CI runs this test in its non-race alloc
// step.

package synth

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// updateGolden rewrites pinned.go from a fresh calibration of every pinned
// profile.
var updateGolden = flag.Bool("update-golden", false, "rewrite pinned.go from a fresh calibration of every pinned profile")

const regenerate = "regenerate the table after any change to the builder, the generator, measureMix or a bundled profile: go test ./internal/synth -run TestPinnedDraws -update-golden"

// pinnedProfiles returns every profile pinnedDraws must hold: each bundled
// profile a name resolves to, then the x86 variant of each benchmark.
func pinnedProfiles() []*Profile {
	ps := append([]*Profile(nil), bundled...)
	for _, p := range Benchmarks() {
		ps = append(ps, X86Variant(p))
	}
	return ps
}

// drawBits returns d's five floats as their IEEE 754 bits, so that draws
// compare bit-exactly with ==.
func drawBits(d draws) [5]uint64 {
	return [5]uint64{math.Float64bits(d.memP), math.Float64bits(d.stackP),
		math.Float64bits(d.methodW[0]), math.Float64bits(d.methodW[1]), math.Float64bits(d.methodW[2])}
}

// TestPinnedDraws recalibrates every pinned profile and requires its pinned
// draws to be bit-identical to calibrate's and its built program to equal
// the calibrated one. It also requires that every pinned profile has an
// entry, that the table holds nothing else, and that an unpinned profile
// still builds exactly as calibrate does.
func TestPinnedDraws(t *testing.T) {
	profs := pinnedProfiles()
	got := make([]draws, len(profs))
	t.Run("calibrate", func(t *testing.T) {
		for i, p := range profs {
			t.Run(p.ID(), func(t *testing.T) {
				t.Parallel()
				prog, d, err := calibrate(p)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = d
				if *updateGolden {
					return
				}
				want, ok := pinnedDraws[p.Fingerprint()]
				if !ok {
					t.Fatalf("no pinned draws for fingerprint %s; %s", p.Fingerprint(), regenerate)
				}
				if drawBits(want) != drawBits(d) {
					t.Fatalf("pinned draws %+v, calibrate gives %+v; %s", want, d, regenerate)
				}
				built, err := BuildProgram(p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(built, prog) {
					t.Fatalf("pinned build differs from the calibrated program; %s", regenerate)
				}
			})
		}
	})
	if *updateGolden {
		if err := os.WriteFile("pinned.go", pinnedSource(t, profs, got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote pinned.go with %d entries", len(profs))
		return
	}

	pinned := map[string]bool{}
	for _, p := range profs {
		pinned[p.Fingerprint()] = true
	}
	for fp := range pinnedDraws {
		if !pinned[fp] {
			t.Errorf("pinned draws for fingerprint %s, which no pinned profile has; %s", fp, regenerate)
		}
	}

	unpinned := Crafty().WithInput("unpinned", 7)
	if _, ok := pinnedDraws[unpinned.Fingerprint()]; ok {
		t.Fatalf("%s is pinned", unpinned.ID())
	}
	built, err := BuildProgram(unpinned)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, _, err := calibrate(unpinned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, calibrated) {
		t.Errorf("BuildProgram(%s), unpinned, differs from calibrate", unpinned.ID())
	}
}

// pinnedSource renders pinned.go for profs and their calibrated draws.
func pinnedSource(t *testing.T, profs []*Profile, ds []draws) []byte {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b bytes.Buffer
	b.WriteString("// Code generated by `go test ./internal/synth -run TestPinnedDraws -update-golden`. DO NOT EDIT.\n\n")
	b.WriteString("package synth\n\n")
	b.WriteString("// pinnedDraws maps the Fingerprint of every bundled profile to the draws\n")
	b.WriteString("// calibrate settles on for it, so BuildProgram draws that profile's program\n")
	b.WriteString("// once instead of calibrating it. Each float is written in its shortest\n")
	b.WriteString("// round-tripping decimal form, so every entry is bit-exact.\n")
	b.WriteString("var pinnedDraws = map[string]draws{\n")
	for i, p := range profs {
		d := ds[i]
		fmt.Fprintf(&b, "\t%q: {memP: %s, stackP: %s, methodW: [3]float64{%s, %s, %s}}, // %s\n",
			p.Fingerprint(), f(d.memP), f(d.stackP), f(d.methodW[0]), f(d.methodW[1]), f(d.methodW[2]), p.ID())
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return src
}
