package synth

// This file defines the calibrated profiles for the twelve SPECint2000
// benchmarks of Table 1. The parameter values are tuned to reproduce the
// per-benchmark characteristics the paper reports:
//
//   - Figure 1: region/method mix (≈56% of memory refs to stack on
//     average, ≈82% of stack refs $sp-relative; 252.eon is the outlier
//     with ~45% of stack refs through general-purpose registers).
//   - Figure 2: stack-depth-over-time shape (e.g. 186.crafty active in
//     [200, 600] words; 256.bzip2 mostly shallow with rare >1000-word
//     excursions; 176.gcc deep and variable).
//   - Figure 3: offset-from-TOS locality (bzip2 ≈ 2.5 bytes average,
//     gcc ≈ 380 bytes; >99% within 8KB for all but gcc).
//   - Table 3: memory-traffic scaling with structure size (which
//     benchmarks still generate traffic at 4KB/8KB).

func base() Profile {
	return Profile{
		Seed:     1,
		MemFrac:  0.42,
		LoadFrac: 0.64,
		MultFrac: 0.03,

		StackFrac: 0.56,
		HeapFrac:  0.45,
		ROFrac:    0.08,
		SPFrac:    0.82,
		FPFrac:    0.08,

		NumFuncs:      48,
		FrameWordsMin: 6,
		FrameWordsMax: 24,
		BodyLenMin:    12,
		BodyLenMax:    48,
		CallFrac:      0.06,
		LoopFrac:      0.25,
		LoopTripMin:   2,
		LoopTripMax:   24,

		DepthTypicalWords: 200,
		DepthBurstWords:   400,
		BurstProb:         0.05,
		RecurseFrac:       0.10,

		LocalOffsetGeom: 0.25,
		SpillReloadFrac: 0.30,
		DeepFrac:        0.25,
		DeepMaxWords:    256,
		AliasPairFrac:   0.01,

		BranchFrac:     0.12,
		BranchBias:     0.94,
		HardBranchFrac: 0.04,

		GlobalFootprintWords: 1 << 12,
		HeapFootprintWords:   1 << 14,
		HotFrac:              0.95,

		NonImmSPFrac:  0.002,
		InvocationLen: 260,
		EpisodeLen:    60000,
		SubtreeLen:    16000,
	}
}

func mk(name string, seed uint64, mut func(*Profile)) *Profile {
	p := base()
	p.Name = name
	p.Seed = seed
	mut(&p)
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &p
}

// Benchmarks returns the twelve SPECint2000 benchmark profiles in the
// paper's Table 1 order, one representative input each.
func Benchmarks() []*Profile {
	return []*Profile{
		Bzip2(), Crafty(), Eon(), Gap(), Gcc(), Gzip(),
		Mcf(), Parser(), Twolf(), Vortex(), Perlbmk(), Vpr(),
	}
}

// BenchmarkInputs returns the seventeen benchmark·input pairs used by
// Table 3 (each benchmark with each of its Table 1 inputs).
func BenchmarkInputs() []*Profile {
	return []*Profile{
		Bzip2(), // graphic
		Bzip2().WithInput("program", 1),
		Crafty(), // ref
		Eon(),    // cook
		Eon().WithInput("kajiya", 1),
		Gap(), // ref
		Gcc(), // cp-decl
		Gcc().WithInput("integrate", 1),
		Gzip(), // graphic
		Gzip().WithInput("log", 1),
		Gzip().WithInput("program", 2),
		Mcf(),     // inp
		Parser(),  // ref
		Twolf(),   // ref
		Vortex(),  // ref
		Perlbmk(), // scrabbl
		Vpr(),     // ref
	}
}

// X86Variant derives an x86-flavoured profile from an Alpha-flavoured one,
// modelling the paper's stated next step (§7): increased reliance on the
// stack region and partial-word references. A third of memory references
// become 1/2/4-byte accesses and the stack share grows, which exposes the
// SVF's read-modify-write cost on partial first-writes.
func X86Variant(p *Profile) *Profile {
	q := *p
	q.Input = p.Input + "-x86"
	q.Seed = p.Seed ^ 0x8686_8686
	q.SubWordFrac = 0.35
	q.StackFrac = min(0.85, p.StackFrac*1.15)
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return &q
}

// bundled is every profile a name resolves to, built once: the SPECint
// benchmark inputs, then the stack-stress families. Its entries are shared
// and must never be modified.
var bundled = append(BenchmarkInputs(), Families()...)

// Bundled returns the bundled profile whose Name or ID matches name, or
// nil. Both the SPECint benchmark inputs and the stack-stress families
// resolve. The profile is the one shared, read-only table entry, so every
// caller that resolves a name gets the same pointer; a caller that may
// modify the profile uses ByName's copy instead.
func Bundled(name string) *Profile {
	for _, p := range bundled {
		if p.Name == name || p.ID() == name {
			return p
		}
	}
	return nil
}

// ByName returns a caller-owned copy of the profile Bundled resolves name
// to, or nil.
func ByName(name string) *Profile {
	p := Bundled(name)
	if p == nil {
		return nil
	}
	q := *p
	return &q
}

// Bzip2 models 256.bzip2 (input "graphic"): compression kernels dominated
// by tight loops over tiny frames; references average just 2.5 bytes from
// TOS; stack depth is shallow except for rare sort-recursion excursions
// past 1000 words.
func Bzip2() *Profile {
	return mk("256.bzip2", 256, func(p *Profile) {
		p.Input = "graphic"
		p.MemFrac = 0.38
		p.StackFrac = 0.55
		p.SPFrac = 0.93
		p.FPFrac = 0.02
		p.FrameWordsMin, p.FrameWordsMax = 3, 8
		p.BodyLenMin, p.BodyLenMax = 10, 28
		p.LoopFrac = 0.40
		p.LoopTripMin, p.LoopTripMax = 8, 64
		p.DepthTypicalWords = 48
		p.DepthBurstWords = 1150
		p.BurstProb = 0.05
		p.RecurseFrac = 0.30
		p.LocalOffsetGeom = 0.75 // offsets concentrated at word 0..1
		p.DeepFrac = 0.05
		p.DeepMaxWords = 32
		p.BranchBias = 0.95
		p.HardBranchFrac = 0.03
	})
}

// Crafty models 186.crafty (chess search): recursive alpha-beta search
// keeping the stack in a stable [200, 600]-word band with moderate frames.
func Crafty() *Profile {
	return mk("186.crafty", 186, func(p *Profile) {
		p.Input = "ref"
		p.MemFrac = 0.40
		p.StackFrac = 0.60
		p.SPFrac = 0.86
		p.FPFrac = 0.05
		p.FrameWordsMin, p.FrameWordsMax = 12, 40
		p.DepthTypicalWords = 420
		p.DepthBurstWords = 620
		p.BurstProb = 0.30
		p.RecurseFrac = 0.35
		p.LocalOffsetGeom = 0.30
		p.DeepFrac = 0.15
		p.DeepMaxWords = 192
		p.BranchBias = 0.92
		p.HardBranchFrac = 0.06
	})
}

// Eon models 252.eon (input "cook"): C++ ray tracing with heavy
// pointer-based access to stack objects — ~45% of its stack references go
// through general-purpose registers, producing the $gpr-store/$sp-load
// collisions that squash SVF loads (§3.2).
func Eon() *Profile {
	return mk("252.eon", 252, func(p *Profile) {
		p.Input = "cook"
		p.MemFrac = 0.45
		p.StackFrac = 0.66
		p.SPFrac = 0.52
		p.FPFrac = 0.03
		p.FrameWordsMin, p.FrameWordsMax = 10, 48
		p.DepthTypicalWords = 520
		p.DepthBurstWords = 1400
		p.BurstProb = 0.15
		p.RecurseFrac = 0.25
		p.LocalOffsetGeom = 0.20
		p.DeepFrac = 0.35
		p.DeepMaxWords = 512
		p.AliasPairFrac = 0.12
		p.BranchBias = 0.94
		p.HardBranchFrac = 0.03
	})
}

// Gap models 254.gap (group theory interpreter): moderate stack use over a
// large heap working set.
func Gap() *Profile {
	return mk("254.gap", 254, func(p *Profile) {
		p.Input = "ref"
		p.MemFrac = 0.43
		p.StackFrac = 0.45
		p.HeapFrac = 0.65
		p.SPFrac = 0.85
		p.DepthTypicalWords = 110
		p.DepthBurstWords = 300
		p.BurstProb = 0.10
		p.RecurseFrac = 0.20
		p.DeepFrac = 0.20
		p.DeepMaxWords = 128
		p.HeapFootprintWords = 1 << 17
		p.HotFrac = 0.7
	})
}

// Gcc models 176.gcc (input "cp-decl"): the hardest case — large frames,
// deep and highly variable stack depth, references averaging 380 bytes
// from TOS, and a stack working set that still spills an 8KB structure.
func Gcc() *Profile {
	return mk("176.gcc", 176, func(p *Profile) {
		p.Input = "cp-decl"
		p.MemFrac = 0.44
		p.StackFrac = 0.62
		p.SPFrac = 0.78
		p.FPFrac = 0.10
		p.NumFuncs = 96
		p.FrameWordsMin, p.FrameWordsMax = 32, 200
		p.BodyLenMin, p.BodyLenMax = 16, 64
		p.DepthTypicalWords = 900
		p.DepthBurstWords = 3200
		p.BurstProb = 0.25
		p.RecurseFrac = 0.30
		p.LocalOffsetGeom = 0.04 // wide offsets within big frames
		p.DeepFrac = 0.35
		p.DeepMaxWords = 1024
		p.BranchBias = 0.88
		p.HardBranchFrac = 0.08
	})
}

// Gzip models 164.gzip (input "graphic"): almost no interesting stack
// behaviour — shallow, tiny frames, loop-dominated, nearly zero structure
// traffic at any size.
func Gzip() *Profile {
	return mk("164.gzip", 164, func(p *Profile) {
		p.Input = "graphic"
		p.MemFrac = 0.36
		p.StackFrac = 0.42
		p.SPFrac = 0.91
		p.FPFrac = 0.03
		p.FrameWordsMin, p.FrameWordsMax = 3, 10
		p.LoopFrac = 0.45
		p.LoopTripMin, p.LoopTripMax = 8, 96
		p.DepthTypicalWords = 36
		p.DepthBurstWords = 72
		p.BurstProb = 0.02
		p.RecurseFrac = 0.02
		p.LocalOffsetGeom = 0.6
		p.DeepFrac = 0.04
		p.DeepMaxWords = 24
		p.BranchBias = 0.96
		p.HardBranchFrac = 0.02
	})
}

// Mcf models 181.mcf (network simplex): heap-dominated pointer chasing
// with light, shallow stack activity.
func Mcf() *Profile {
	return mk("181.mcf", 181, func(p *Profile) {
		p.Input = "inp"
		p.MemFrac = 0.46
		p.StackFrac = 0.28
		p.HeapFrac = 0.80
		p.SPFrac = 0.88
		p.FrameWordsMin, p.FrameWordsMax = 4, 12
		p.DepthTypicalWords = 40
		p.DepthBurstWords = 90
		p.BurstProb = 0.05
		p.RecurseFrac = 0.05
		p.DeepFrac = 0.05
		p.DeepMaxWords = 32
		p.HeapFootprintWords = 1 << 21
		p.HotFrac = 0.4 // poor heap locality
		p.BranchBias = 0.85
		p.HardBranchFrac = 0.10
	})
}

// Parser models 197.parser: recursive-descent parsing with a ~2KB stack
// working set (Table 3 shows traffic at 2KB but none at 4KB).
func Parser() *Profile {
	return mk("197.parser", 197, func(p *Profile) {
		p.Input = "ref"
		p.MemFrac = 0.41
		p.StackFrac = 0.58
		p.SPFrac = 0.83
		p.FrameWordsMin, p.FrameWordsMax = 6, 18
		p.DepthTypicalWords = 210
		p.DepthBurstWords = 480
		p.BurstProb = 0.20
		p.RecurseFrac = 0.35
		p.DeepFrac = 0.15
		p.DeepMaxWords = 160
	})
}

// Twolf models 300.twolf (placement/routing): moderate depth, modest
// working set that fits in 4KB.
func Twolf() *Profile {
	return mk("300.twolf", 300, func(p *Profile) {
		p.Input = "ref"
		p.MemFrac = 0.42
		p.StackFrac = 0.52
		p.SPFrac = 0.84
		p.FrameWordsMin, p.FrameWordsMax = 8, 28
		p.DepthTypicalWords = 180
		p.DepthBurstWords = 400
		p.BurstProb = 0.12
		p.RecurseFrac = 0.12
		p.DeepFrac = 0.18
		p.DeepMaxWords = 128
		p.BranchBias = 0.90
		p.HardBranchFrac = 0.07
	})
}

// Vortex models 255.vortex (OO database): shallow stable stack, large
// global/heap footprint.
func Vortex() *Profile {
	return mk("255.vortex", 255, func(p *Profile) {
		p.Input = "ref"
		p.MemFrac = 0.47
		p.StackFrac = 0.52
		p.SPFrac = 0.89
		p.FrameWordsMin, p.FrameWordsMax = 6, 20
		p.DepthTypicalWords = 90
		p.DepthBurstWords = 180
		p.BurstProb = 0.05
		p.RecurseFrac = 0.08
		p.DeepFrac = 0.10
		p.DeepMaxWords = 64
		p.GlobalFootprintWords = 1 << 16
	})
}

// Perlbmk models 253.perlbmk (input "scrabbl"): interpreter recursion whose
// deep $gpr references alias hot top-of-stack lines in a direct-mapped
// stack cache (the Figure 7 anomaly where the 8KB stack cache thrashes
// although the working set fits the 64KB L1), while the SVF reroutes them
// to the L1 untouched.
func Perlbmk() *Profile {
	return mk("253.perlbmk", 253, func(p *Profile) {
		p.Input = "scrabbl"
		p.MemFrac = 0.44
		p.StackFrac = 0.58
		p.SPFrac = 0.80
		p.FPFrac = 0.06
		p.FrameWordsMin, p.FrameWordsMax = 10, 36
		p.SPFrac = 0.72
		p.DepthTypicalWords = 1250
		p.DepthBurstWords = 1600
		p.BurstProb = 0.30
		p.RecurseFrac = 0.35
		p.DeepFrac = 0.85
		p.DeepMaxWords = 1400 // > 1024 words: aliases in an 8KB direct-mapped cache
		p.DeepSkew = 3
		p.BranchBias = 0.90
		p.HardBranchFrac = 0.07
	})
}

// Vpr models 175.vpr (FPGA place & route): small frames, shallow stack,
// low structure traffic at every size.
func Vpr() *Profile {
	return mk("175.vpr", 175, func(p *Profile) {
		p.Input = "ref"
		p.MemFrac = 0.40
		p.StackFrac = 0.50
		p.SPFrac = 0.86
		p.FrameWordsMin, p.FrameWordsMax = 5, 16
		p.DepthTypicalWords = 80
		p.DepthBurstWords = 160
		p.BurstProb = 0.05
		p.RecurseFrac = 0.06
		p.DeepFrac = 0.10
		p.DeepMaxWords = 48
	})
}
