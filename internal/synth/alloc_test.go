//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package synth

import "testing"

// TestByNameAllocs guards name resolution, which every svfd cell naming a
// bundled workload pays: ByName copies one table entry (1 allocation) and
// builds no profile, and Bundled allocates nothing.
func TestByNameAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		max     float64
		resolve func()
	}{
		{"ByName", 1, func() { ByName("alloca.dyn.dyn") }},
		{"Bundled", 0, func() { Bundled("alloca.dyn.dyn") }},
	} {
		if got := testing.AllocsPerRun(100, c.resolve); got > c.max {
			t.Errorf("%s allocates %v times, want at most %v", c.name, got, c.max)
		}
	}
}

// TestBuildProgramAllocs guards the pinned build: a bundled profile's
// program is one draw, 538 allocations for crafty, where a fall-back to
// calibration's draw-and-measure rounds allocates about 42,800.
func TestBuildProgramAllocs(t *testing.T) {
	prof := Bundled("186.crafty")
	const max = 538
	got := testing.AllocsPerRun(5, func() {
		if _, err := BuildProgram(prof); err != nil {
			t.Fatal(err)
		}
	})
	if got > max {
		t.Errorf("BuildProgram(%s) allocates %v times, want at most %v", prof.ID(), got, max)
	}
}
