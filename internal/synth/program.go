package synth

import (
	"fmt"
	"math/rand/v2"

	"svf/internal/isa"
	"svf/internal/regions"
)

// tmplKind enumerates static instruction-template kinds. Each template
// expands to exactly one dynamic instruction when executed, which keeps the
// static-PC ↔ dynamic-instruction mapping trivial.
type tmplKind uint8

const (
	tALU tmplKind = iota
	tMult
	tMem        // load/store; space/method fields say where
	tBranch     // conditional branch skipping to partner when taken
	tCall       // call site (suppressed into a not-taken branch at depth cap)
	tLoopBegin  // loop header (emits the trip-count setup ALU op)
	tLoopEnd    // backward conditional branch to partner+1
	tFrameAlloc // $sp -= frame bytes (prologue)
	tFrameFree  // $sp += frame bytes (epilogue)
	tFPSet      // $fp ← $sp
	tRet        // return through $ra
	tAlloca     // $sp -= run-time-drawn bytes (dynamic allocation)
)

// space says which data region a tMem template touches.
type space uint8

const (
	spaceStack space = iota
	spaceGlobal
	spaceHeap
	spaceRO
)

// tmpl is one static instruction template.
type tmpl struct {
	kind     tmplKind
	isLoad   bool
	space    space
	method   regions.Method // stack refs only
	offW     int32          // local frame offset in words (stack refs)
	deep     bool           // stack ref targets an ancestor frame (offset drawn at run time)
	alias    bool           // $gpr-addressed reference to the *current* frame (squash pattern)
	fixedOff bool           // paired reference: offW must not be redirected
	callee   int32          // tCall
	partner  int32          // tBranch skip target / tLoopEnd header index
	bias     float32        // tBranch taken probability
	tripMin  int32          // tLoopBegin
	tripMax  int32
	nonImm   bool // tFrameAlloc via computed $sp (decode interlock)
	// period, for tBranch: non-zero means the branch follows a
	// deterministic taken pattern with one not-taken every period
	// executions (learnable by history predictors); zero means a random
	// coin with probability bias (inherently unpredictable).
	period uint16
	// gid is the template's program-global index (for per-generator
	// run-time state such as branch execution counters).
	gid int32
	// size is the access size in bytes for tMem (0 means a full word).
	size uint8
	dst  uint8
	src1 uint8
	src2 uint8
	pc   uint64
}

// function is one synthetic function: prologue templates, body templates,
// epilogue templates, laid out contiguously in tmpls.
type function struct {
	id         int
	frameWords int
	saveWords  int // words at the frame top reserved for RA + callee saves
	usesFP     bool
	tmpls      []tmpl
	entryPC    uint64
	bodyStart  int // first body template (after the prologue)
	bodyEnd    int // one past the last body template (main wraps here)
}

func (f *function) frameBytes() int32 { return int32(f.frameWords) * isa.WordSize }

// Program is a fully built static program for one profile.
type Program struct {
	Prof   *Profile
	Layout regions.Layout
	funcs  []*function
	// totalTmpls counts templates across all functions (sizing
	// per-generator state).
	totalTmpls int
	// switchPC is the PC of the coroutine-switch thunk (the swapcontext
	// routine's $sp relocation), laid out after the last function.
	switchPC uint64
}

// scratch registers available for compute results (avoids $sp, $fp, $ra,
// $zero, and the reserved pointer registers r27-r29).
var scratchRegs = func() []uint8 {
	var rs []uint8
	for r := uint8(1); r < isa.NumRegs; r++ {
		switch r {
		case isa.RegFP, isa.RegRA, isa.RegSP, isa.RegZero, 27, 28, 29:
			continue
		}
		rs = append(rs, r)
	}
	return rs
}()

// pointer registers used as bases for $gpr-addressed stack references.
var pointerRegs = []uint8{27, 28, 29}

// BuildProgram expands a profile into its static program. Construction is
// fully deterministic in the profile's seed.
//
// Because structural overhead (prologue/epilogue spills, loop back-edges,
// guarded-call branches) dilutes the drawn instruction mix, the draw
// probabilities are calibrated (see calibrate) until the dynamic mix
// matches the profile's targets. The bundled profiles — the seventeen
// BenchmarkInputs, the four Families and the twelve
// X86Variant(Benchmarks()) — have their calibrated draws pinned in
// pinnedDraws, keyed by Fingerprint, so building one is a single draw.
// Any other profile (custom, mutated, or a new WithInput seed) calibrates
// at build time, about 170 ms. After any change to the builder, the
// generator, measureMix or a bundled profile, regenerate the table with
// `go test ./internal/synth -run TestPinnedDraws -update-golden`.
func BuildProgram(prof *Profile) (*Program, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if d, ok := pinnedDraws[prof.Fingerprint()]; ok {
		return buildOnce(prof, d)
	}
	prog, _, err := calibrate(prof)
	return prog, err
}

// draws are the calibrated draw probabilities one buildOnce round uses.
type draws struct {
	memP    float64    // memory-op draw probability
	stackP  float64    // stack-ref draw probability
	methodW [3]float64 // $sp/$fp/$gpr draw weights
}

// calibrate draws the program, measures the achieved memory, stack and
// method fractions on a short functional run, and re-draws it with
// corrected probabilities, for up to six rounds, until the dynamic mix
// matches the profile's targets. It returns the closest round's program
// and the draws that built it, which are not always the last round's.
func calibrate(prof *Profile) (*Program, draws, error) {
	memP, stackP := prof.MemFrac, prof.StackFrac
	fpT := prof.FPFrac
	gprT := 1 - prof.SPFrac - prof.FPFrac
	methodW := [3]float64{prof.SPFrac, fpT, gprT}
	var prog, best *Program
	var bestDraws draws
	bestErr := 1e9
	for iter := 0; iter < 6; iter++ {
		d := draws{memP: memP, stackP: stackP, methodW: methodW}
		var err error
		prog, err = buildOnce(prof, d)
		if err != nil {
			return nil, draws{}, err
		}
		m := measureMix(prog, calibrationInsts)
		e := absF(m.mem-prof.MemFrac) + absF(m.stack-prof.StackFrac) +
			absF(m.fp-fpT) + absF(m.gpr-gprT)
		if e < bestErr {
			bestErr, best, bestDraws = e, prog, d
		}
		if within(m.mem, prof.MemFrac, 0.02) && within(m.stack, prof.StackFrac, 0.03) &&
			within(m.fp, fpT, 0.02) && within(m.gpr, gprT, 0.02) {
			break
		}
		// Damped multiplicative corrections: full steps oscillate because
		// the draw→mix response is nonlinear.
		if m.mem > 0.001 {
			memP = clampF(memP*damp(prof.MemFrac/m.mem), 0.01, 0.85)
		}
		if m.stack > 0.001 {
			stackP = clampF(stackP*damp(prof.StackFrac/m.stack), 0.01, 0.98)
		}
		if fpT > 0.001 && m.fp > 0.0005 {
			methodW[1] = clampF(methodW[1]*damp(fpT/m.fp), 0.005, 0.6)
		} else if fpT > 0.001 {
			methodW[1] = clampF(methodW[1]*1.7, 0.005, 0.6)
		}
		if gprT > 0.001 && m.gpr > 0.0005 {
			methodW[2] = clampF(methodW[2]*damp(gprT/m.gpr), 0.005, 0.9)
		} else if gprT > 0.001 {
			methodW[2] = clampF(methodW[2]*1.7, 0.005, 0.9)
		}
		methodW[0] = clampF(1-methodW[1]-methodW[2], 0.05, 1)
	}
	return best, bestDraws, nil
}

// damp pulls a multiplicative correction ratio toward 1 (square root).
func damp(r float64) float64 {
	if r <= 0 {
		return 1
	}
	return 1 + (r-1)*0.7
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// calibrationInsts is the functional run length used by the build-time
// mix calibration.
const calibrationInsts = 1_000_000

func within(v, target, tol float64) bool {
	d := v - target
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// measuredMix is the dynamic mix achieved by one calibration run.
type measuredMix struct {
	mem   float64 // mem refs / instructions
	stack float64 // stack refs / mem refs
	fp    float64 // $fp refs / stack refs
	gpr   float64 // $gpr refs / stack refs
}

// measureMix runs the program functionally and returns the achieved mix.
func measureMix(prog *Program, n int) measuredMix {
	g := NewGeneratorFor(prog)
	var in isa.Inst
	var mem, stack, fp, gpr uint64
	for i := 0; i < n; i++ {
		if !g.Next(&in) {
			break
		}
		if !in.IsMem() {
			continue
		}
		mem++
		if !prog.Layout.InStack(in.Addr) {
			continue
		}
		stack++
		switch regions.MethodOf(in.Base) {
		case regions.MethodFP:
			fp++
		case regions.MethodGPR:
			gpr++
		}
	}
	var m measuredMix
	if n > 0 {
		m.mem = float64(mem) / float64(n)
	}
	if mem > 0 {
		m.stack = float64(stack) / float64(mem)
	}
	if stack > 0 {
		m.fp = float64(fp) / float64(stack)
		m.gpr = float64(gpr) / float64(stack)
	}
	return m
}

// buildOnce draws the static program with the given (possibly corrected)
// draw probabilities.
func buildOnce(prof *Profile, d draws) (*Program, error) {
	rng := rand.New(rand.NewPCG(prof.Seed, prof.Seed^0xdeadbeefcafef00d))
	p := &Program{Prof: prof, Layout: regions.DefaultLayout()}
	b := &builder{prof: prof, rng: rng, draws: d}
	b.initSharedMixers()
	for i := 0; i < prof.NumFuncs; i++ {
		p.funcs = append(p.funcs, b.buildFunction(i))
	}
	// Assign PCs (functions laid out contiguously in the text region)
	// and global template ids.
	pc := p.Layout.TextBase + 0x1000
	gid := int32(0)
	for _, f := range p.funcs {
		f.entryPC = pc
		for i := range f.tmpls {
			f.tmpls[i].pc = pc
			f.tmpls[i].gid = gid
			pc += 4
			gid++
		}
		pc += 16 // inter-function padding
	}
	p.totalTmpls = int(gid)
	p.switchPC = pc // coroutine-switch thunk in the trailing padding
	pc += 4
	if pc >= p.Layout.TextBase+p.Layout.TextSize {
		return nil, fmt.Errorf("synth: program text overflows region (%#x)", pc)
	}
	return p, nil
}

type builder struct {
	prof     *Profile
	rng      *rand.Rand
	lastDst  uint8
	lastLoad bool // the most recent value producer was a load
	isMain   bool // building function 0, the dispatcher
	draws         // calibrated draw probabilities

	// Stratified category mixers. slotMix is reset per function (main is
	// call-heavy); the others persist across the whole program so that
	// even categories rarer than one pick per function reach their
	// target aggregate frequency. Smooth weighted round-robin keeps the
	// static mix close to the target fractions, so run-time
	// concentration on a few hot functions cannot skew the dynamic mix.
	slotMix   mixer // call / branch / mem / compute
	stackMix  mixer // stack / non-stack
	methodMix mixer // $sp / $fp / $gpr
	loadMix   mixer // load / store
	spaceMix  mixer // heap / rodata / global
	deepMix   mixer // ancestor-frame / current-frame
}

// mixer is a smooth weighted round-robin selector: Next returns category
// indices whose long-run frequencies match the weights, with far lower
// variance than independent random draws.
type mixer struct {
	weights []float64
	acc     []float64
}

func newMixer(weights ...float64) mixer {
	return mixer{weights: weights, acc: make([]float64, len(weights))}
}

// Next returns the index of the next category.
func (m *mixer) Next() int {
	var total float64
	best := 0
	for i, w := range m.weights {
		m.acc[i] += w
		total += w
		if m.acc[i] > m.acc[best] {
			best = i
		}
	}
	m.acc[best] -= total
	return best
}

// mainCallFrac is the call-site density of function 0's body. Main acts as
// the program's event loop, dispatching into the rest of the call graph, so
// it is call-heavy regardless of the profile's CallFrac.
const mainCallFrac = 0.30

// initSharedMixers sets up the program-wide category mixers.
func (b *builder) initSharedMixers() {
	prof := b.prof
	b.stackMix = newMixer(b.stackP, 1-b.stackP)
	b.methodMix = newMixer(b.methodW[0], b.methodW[1], b.methodW[2])
	b.loadMix = newMixer(prof.LoadFrac, 1-prof.LoadFrac)
	b.spaceMix = newMixer(prof.HeapFrac, prof.ROFrac, 1-prof.HeapFrac-prof.ROFrac)
	b.deepMix = newMixer(prof.DeepFrac, 1-prof.DeepFrac)
}

// resetSlotMixer re-seeds the per-function slot mixer with a random phase
// so functions differ in layout while matching the same aggregate mix.
func (b *builder) resetSlotMixer() {
	prof := b.prof
	callFrac := prof.CallFrac
	if b.isMain {
		callFrac = mainCallFrac
	}
	compute := 1 - callFrac - prof.BranchFrac - b.memP
	if compute < 0.02 {
		compute = 0.02
	}
	b.slotMix = newMixer(callFrac, prof.BranchFrac, b.memP, compute)
	for i := range b.slotMix.acc {
		b.slotMix.acc[i] = b.rng.Float64() * b.slotMix.weights[i]
	}
}

func (b *builder) pickDst() uint8 {
	b.lastDst = scratchRegs[b.rng.IntN(len(scratchRegs))]
	b.lastLoad = false
	return b.lastDst
}

// pickLoadDst is pickDst for load destinations; consumers chain off loads
// more aggressively, putting load-use latency on the critical path.
func (b *builder) pickLoadDst() uint8 {
	r := scratchRegs[b.rng.IntN(len(scratchRegs))]
	b.lastDst = r
	b.lastLoad = true
	return r
}

func (b *builder) pickSrc() uint8 {
	// Chain off the most recent destination some of the time to create
	// realistic dependence chains without serialising the whole body;
	// chain harder off loads so load-use latency matters.
	chain := 0.25
	if b.lastLoad {
		chain = 0.8
	}
	if b.lastDst != 0 && b.rng.Float64() < chain {
		return b.lastDst
	}
	return scratchRegs[b.rng.IntN(len(scratchRegs))]
}

func (b *builder) intIn(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + b.rng.IntN(hi-lo+1)
}

// localOffset draws a frame-local word offset in [save, frameWords), biased
// toward the top of the frame by the profile's geometric parameter.
func (b *builder) localOffset(f *function) int32 {
	lo, hi := f.saveWords, f.frameWords-1
	if hi < lo {
		return int32(lo)
	}
	span := hi - lo + 1
	g := b.prof.LocalOffsetGeom
	if g <= 0 {
		return int32(lo + b.rng.IntN(span))
	}
	// Geometric draw truncated to the frame.
	off := 0
	for off < span-1 && b.rng.Float64() > g {
		off++
	}
	return int32(lo + off)
}

func (b *builder) buildFunction(id int) *function {
	prof := b.prof
	b.isMain = id == 0
	b.resetSlotMixer()
	f := &function{
		id:         id,
		frameWords: b.intIn(prof.FrameWordsMin, prof.FrameWordsMax),
		usesFP:     prof.FPFrac > 0 && b.rng.Float64() < min(1, prof.FPFrac*4),
	}
	// Reserve the top of the frame for the return address plus a few
	// callee-saved registers.
	saves := 1 + b.intIn(0, 2)
	if saves >= f.frameWords {
		saves = f.frameWords - 1
		if saves < 1 {
			saves = 1
			f.frameWords = 2
		}
	}
	f.saveWords = saves

	// Prologue. Register saves use the drawn access size so x86-style
	// profiles spill sub-word registers.
	f.tmpls = append(f.tmpls, tmpl{kind: tFrameAlloc, nonImm: b.rng.Float64() < prof.NonImmSPFrac})
	f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: 0, src1: isa.RegRA}) // save RA
	if f.usesFP {
		f.tmpls = append(f.tmpls, tmpl{kind: tFPSet, dst: isa.RegFP, src1: isa.RegSP})
	}
	saveSizes := make([]uint8, saves)
	for s := 1; s < saves; s++ {
		saveSizes[s] = b.drawSize()
		f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: int32(s), size: saveSizes[s], src1: scratchRegs[s%len(scratchRegs)]})
	}
	f.bodyStart = len(f.tmpls)

	// Body. Main's body is a long, call-heavy dispatch loop so the trace
	// cycles through the whole call graph rather than one hot nest.
	bodyLen := b.intIn(prof.BodyLenMin, prof.BodyLenMax)
	loopDepth := 0
	if b.isMain {
		bodyLen = 128
		loopDepth = 2 // suppress loops in main's own body
	}
	b.emitBody(f, bodyLen, loopDepth)
	f.bodyEnd = len(f.tmpls)

	// Epilogue (function 0, "main", never returns; the generator wraps
	// its body instead).
	if id != 0 {
		for s := saves - 1; s >= 1; s-- {
			f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: int32(s), size: saveSizes[s], isLoad: true, dst: scratchRegs[s%len(scratchRegs)]})
		}
		f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: 0, isLoad: true, dst: isa.RegRA})
		f.tmpls = append(f.tmpls, tmpl{kind: tFrameFree})
		f.tmpls = append(f.tmpls, tmpl{kind: tRet, src1: isa.RegRA})
	}
	return f
}

// emitBody appends n body slots to f, possibly wrapping spans in loops.
// loopDepth bounds loop nesting.
func (b *builder) emitBody(f *function, n, loopDepth int) {
	prof := b.prof
	for emitted := 0; emitted < n; {
		if loopDepth < 2 && n-emitted >= 5 && b.rng.Float64() < prof.LoopFrac/6 {
			span := b.intIn(3, min(10, n-emitted-2))
			begin := len(f.tmpls)
			f.tmpls = append(f.tmpls, tmpl{
				kind:    tLoopBegin,
				tripMin: int32(prof.LoopTripMin),
				tripMax: int32(prof.LoopTripMax),
				dst:     b.pickDst(),
			})
			b.emitBody(f, span, loopDepth+1)
			f.tmpls = append(f.tmpls, tmpl{kind: tLoopEnd, partner: int32(begin)})
			emitted += span + 2
			continue
		}
		emitted += b.emitSlot(f)
	}
}

// emitSlot appends one body slot (1+ templates) and returns how many slots
// it consumed.
func (b *builder) emitSlot(f *function) int {
	prof := b.prof
	// Alloca-style dynamic allocation: $sp moves down mid-frame by a
	// run-time-drawn amount. Never in main — its frame is immortal, so
	// the space would leak and walk $sp off the region.
	if prof.AllocaFrac > 0 && !b.isMain && b.rng.Float64() < prof.AllocaFrac {
		f.tmpls = append(f.tmpls, tmpl{
			kind:    tAlloca,
			tripMin: int32(prof.AllocaWordsMin),
			tripMax: int32(prof.AllocaWordsMax),
			// Variable-size allocations subtract a computed amount;
			// constant-size ones fold into an immediate.
			nonImm: b.rng.Float64() < 0.5,
		})
		return 1
	}
	switch b.slotMix.Next() {
	case 0: // call
		callee := b.pickCallee(f)
		f.tmpls = append(f.tmpls, tmpl{kind: tCall, callee: int32(callee), dst: isa.RegRA})
		return 1
	case 1: // conditional branch
		bias := prof.BranchBias
		period := uint16(0)
		if b.rng.Float64() < prof.HardBranchFrac {
			// Data-dependent coin: inherently unpredictable.
			bias = 0.45 + 0.1*b.rng.Float64()
		} else {
			// Deterministic pattern: not-taken once every period
			// executions, so history predictors can learn it.
			bias += (b.rng.Float64() - 0.5) * 0.1
			bias = min(0.98, max(0.02, bias))
			period = uint16(1/(1-bias) + 0.5)
			if period < 2 {
				period = 2
			}
		}
		// The branch skips 1-3 simple ALU slots when taken.
		skip := b.intIn(1, 3)
		bi := len(f.tmpls)
		f.tmpls = append(f.tmpls, tmpl{kind: tBranch, bias: float32(bias), period: period, src1: b.pickSrc()})
		for s := 0; s < skip; s++ {
			f.tmpls = append(f.tmpls, tmpl{kind: tALU, dst: b.pickDst(), src1: b.pickSrc(), src2: b.pickSrc()})
		}
		f.tmpls[bi].partner = int32(len(f.tmpls))
		return 1 + skip
	case 2: // memory reference
		return b.emitMem(f)
	default: // compute
		kind := tALU
		if b.rng.Float64() < prof.MultFrac {
			kind = tMult
		}
		f.tmpls = append(f.tmpls, tmpl{kind: kind, dst: b.pickDst(), src1: b.pickSrc(), src2: b.pickSrc()})
		return 1
	}
}

// pickCallee chooses the target of a call site.
func (b *builder) pickCallee(f *function) int {
	if f.id != 0 && b.rng.Float64() < b.prof.RecurseFrac {
		return f.id // self-recursion
	}
	// Any non-main function; cycles are fine because the generator caps
	// call depth at run time.
	c := 1 + b.rng.IntN(b.prof.NumFuncs-1)
	return c
}

// subWordSizes are the partial-word access sizes drawn for SubWordFrac.
var subWordSizes = []uint8{1, 2, 4}

// drawSize picks a template's access size.
func (b *builder) drawSize() uint8 {
	if b.prof.SubWordFrac > 0 && b.rng.Float64() < b.prof.SubWordFrac {
		return subWordSizes[b.rng.IntN(len(subWordSizes))]
	}
	return 0 // full word
}

// emitMem appends one memory-reference slot; alias pairs expand to several
// templates.
func (b *builder) emitMem(f *function) int {
	prof := b.prof
	if b.stackMix.Next() == 1 {
		// Non-stack reference.
		sp := spaceGlobal
		switch b.spaceMix.Next() {
		case 0:
			sp = spaceHeap
		case 1:
			sp = spaceRO
		}
		isLoad := b.loadMix.Next() == 0
		if sp == spaceRO {
			isLoad = true
		}
		t := tmpl{kind: tMem, space: sp, isLoad: isLoad, size: b.drawSize()}
		if isLoad {
			t.dst = b.pickLoadDst()
		} else {
			t.src1 = b.pickSrc()
		}
		t.src2 = pointerRegs[b.rng.IntN(len(pointerRegs))] // base pointer
		f.tmpls = append(f.tmpls, t)
		return 1
	}

	// Stack reference: choose access method. Functions that do not
	// maintain a frame pointer fold their $fp share into $sp, as a
	// compiler would.
	method := regions.MethodSP
	switch b.methodMix.Next() {
	case 1:
		if f.usesFP {
			method = regions.MethodFP
		}
	case 2:
		method = regions.MethodGPR
	}

	// The $gpr-store / $sp-load collision pair (§3.2): a store through a
	// pointer register immediately followed (modulo a couple of compute
	// ops) by an $sp-relative load of the same location. The SVF-aware
	// code generator (§5.3.1) emits the store $sp-relative instead, so
	// the rename logic sees it and nothing squashes.
	if method == regions.MethodGPR && b.rng.Float64() < prof.AliasPairFrac {
		off := b.localOffset(f)
		sz := b.drawSize()
		storeMethod, storeAlias, storeBase := regions.MethodGPR, true, pointerRegs[0]
		if prof.SVFCodeGen {
			storeMethod, storeAlias, storeBase = regions.MethodSP, false, 0
		}
		f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: storeMethod, alias: storeAlias, offW: off, size: sz, fixedOff: true, src1: b.pickSrc(), src2: storeBase})
		nfill := b.intIn(1, 2)
		for i := 0; i < nfill; i++ {
			f.tmpls = append(f.tmpls, tmpl{kind: tALU, dst: b.pickDst(), src1: b.pickSrc()})
		}
		f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: off, size: sz, isLoad: true, fixedOff: true, dst: b.pickLoadDst()})
		return 2 + nfill
	}

	// Spill/reload pair: a value is stored to a frame slot and reloaded
	// onto the dependence chain a couple of instructions later. On the
	// baseline this costs a store-forward (or DL1 hit); in the SVF it is
	// a register rename.
	if method == regions.MethodSP && b.rng.Float64() < prof.SpillReloadFrac {
		off := b.localOffset(f)
		sz := b.drawSize()
		// The spilled value is the live end of the dependence chain.
		spillSrc := b.lastDst
		if spillSrc == 0 {
			spillSrc = b.pickSrc()
		}
		f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: off, size: sz, src1: spillSrc})
		nfill := b.intIn(1, 2)
		for i := 0; i < nfill; i++ {
			f.tmpls = append(f.tmpls, tmpl{kind: tALU, dst: b.pickDst(), src1: b.pickSrc()})
		}
		f.tmpls = append(f.tmpls, tmpl{kind: tMem, space: spaceStack, method: regions.MethodSP, offW: off, size: sz, isLoad: true, fixedOff: true, dst: b.pickLoadDst()})
		f.tmpls = append(f.tmpls, tmpl{kind: tALU, dst: b.pickDst(), src1: b.lastDst})
		return 3 + nfill
	}

	deep := method != regions.MethodSP && b.deepMix.Next() == 0
	if prof.SVFCodeGen && method == regions.MethodGPR && !deep {
		// The SVF-aware compiler addresses own-frame slots through $sp,
		// so the rename logic sees every local reference; only genuine
		// cross-frame pointers stay register-addressed.
		method = regions.MethodSP
	}
	isLoad := b.loadMix.Next() == 0
	t := tmpl{kind: tMem, space: spaceStack, method: method, deep: deep, isLoad: isLoad, size: b.drawSize()}
	if !deep {
		t.offW = b.localOffset(f)
	}
	if isLoad {
		t.dst = b.pickLoadDst()
	} else {
		t.src1 = b.pickSrc()
	}
	if method == regions.MethodGPR {
		t.src2 = pointerRegs[b.rng.IntN(len(pointerRegs))]
	}
	f.tmpls = append(f.tmpls, t)
	return 1
}
