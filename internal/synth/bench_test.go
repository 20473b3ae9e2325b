package synth

import "testing"

// BenchmarkBuildProgram times building one program. pinned builds a
// bundled profile, whose calibrated draws are pinned: one draw. calibrated
// builds an unpinned WithInput variant of the same profile, which runs
// calibrate's draw-and-measure rounds.
func BenchmarkBuildProgram(b *testing.B) {
	prof := Bundled("186.crafty")
	for _, c := range []struct {
		name string
		prof *Profile
	}{
		{"pinned", prof},
		{"calibrated", prof.WithInput("unpinned", 7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildProgram(c.prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
