package pipeline

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"svf/internal/bpred"
	"svf/internal/faultinject"
	"svf/internal/isa"
	"svf/internal/telemetry"
	"svf/internal/trace"
)

// entryState is an RUU entry's lifecycle position.
type entryState uint8

const (
	stFree entryState = iota
	stDispatched
	stIssued
)

// String names the state for diagnostics.
func (s entryState) String() string {
	switch s {
	case stFree:
		return "free"
	case stDispatched:
		return "dispatched"
	case stIssued:
		return "issued"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// dep names a producing RUU entry; seq disambiguates slot reuse.
type dep struct {
	idx int32
	seq uint64
}

const noDep = int32(-1)

// The RUU is laid out struct-of-arrays: the issue/commit/wakeup loops touch
// one dense parallel slice per field they need instead of striding over
// ~144-byte entry structs. ruuInfo packs every field the issue loop's
// resource accounting reads into a single uint32 per slot, so selecting a
// candidate costs one 4-byte load:
//
//	[0:16)  memLat        load-use latency resolved at dispatch
//	bit 16  isMem         memory reference (route bits valid)
//	bit 17  isMult        multiply (acquires an IntMult unit)
//	bit 18  needsAGEN     extra issue slot + ALU for address generation
//	bit 19  mispredict    mispredicted branch; refetch when it issues
//	bit 20  cost1         morphed SVF/RSE store: half-port drain cost
//	bit 21  forwarded     load satisfied by LSQ store forwarding
//	[22:25) route         servicing structure
//	[25:31) bank          SVF bank (precomputed; Bank() is pure in Addr)
const (
	infoLatMask    uint32 = 0xFFFF
	infoIsMem      uint32 = 1 << 16
	infoIsMult     uint32 = 1 << 17
	infoAGEN       uint32 = 1 << 18
	infoMispredict uint32 = 1 << 19
	infoCost1      uint32 = 1 << 20
	infoForwarded  uint32 = 1 << 21
	infoRouteShift        = 22
	infoBankShift         = 25
)

// infoRoute extracts the servicing structure.
func infoRoute(info uint32) Route { return Route(info >> infoRouteShift & 7) }

// lsqMeta is the cold side of one in-flight memory operation; the
// program-order disambiguation walks read lsqAddr/lsqSeq, which stay in
// their own dense slices.
type lsqMeta struct {
	ruuIdx int32
	// prevStore chains to the next-older in-flight store to the same
	// address (noDep if none at insert time); with the storeIdx map it
	// makes findLSQStore O(same-address stores) instead of O(LSQ).
	prevStore    int32
	prevStoreSeq uint64
	isStore      bool
	// gprStore marks stores that reached the SVF through a
	// general-purpose register (the §3.2 collision hazard).
	gprStore bool
}

// consEdge is one wakeup-network link: consumer waits on the producer
// whose ruuConsHead chain the edge is threaded onto.
type consEdge struct {
	consumer int32
	next     int32
}

// lsqRef names an LSQ slot; seq detects slot reuse after commit.
type lsqRef struct {
	idx int32
	seq uint64
}

// ifqEntry is one fetched instruction waiting to dispatch.
type ifqEntry struct {
	inst       isa.Inst
	fetchedAt  uint64
	mispredict bool
}

// Stats are the counters of one pipeline run.
type Stats struct {
	// Cycles is the total execution time.
	Cycles uint64
	// Committed is the number of retired instructions.
	Committed uint64
	// Fetched counts instructions entering the IFQ.
	Fetched uint64
	// Mispredicts counts mispredicted conditional branches.
	Mispredicts uint64
	// Branches counts conditional branches.
	Branches uint64
	// Squashes counts $gpr-store/$sp-load collision squashes (§3.2).
	Squashes uint64
	// Interlocks counts decode stalls on non-immediate $sp updates.
	Interlocks uint64
	// DL1PortConflicts and StackPortConflicts count issue attempts
	// blocked on ports.
	DL1PortConflicts, StackPortConflicts uint64
	// IL1Misses counts instruction-cache misses (the Table 2 IL1 is
	// large enough that these are rare after warm-up).
	IL1Misses uint64
	// RUUFullStalls and LSQFullStalls count dispatch cycles lost to
	// full windows.
	RUUFullStalls, LSQFullStalls uint64
	// MemRefs counts memory instructions committed.
	MemRefs uint64
	// DL1Refs, StackRefs, SVFRefs split MemRefs by servicing structure.
	DL1Refs, StackRefs, SVFRefs uint64
	// Forwards counts LSQ store-to-load forwards.
	Forwards uint64
	// CtxSwitches counts context switches taken.
	CtxSwitches uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// Pipeline is one configured machine instance. Create with New (or recycle
// through Reset / a Pool), drive with Run.
//
// The RUU, LSQ and IFQ rings are allocated at the next power of two above
// their configured capacities so all index arithmetic is an AND with the
// ring mask instead of a modulo; the configured sizes still bound
// occupancy.
type Pipeline struct {
	cfg MachineConfig
	env Env

	// RUU circular buffer, struct-of-arrays (see the ruuInfo layout
	// comment above). Hot per-cycle slices first; ruuInst is the cold
	// side, read only at dispatch and for diagnostics/trace.
	ruuState   []entryState
	ruuPending []int8 // outstanding producers; ready at zero
	ruuInfo    []uint32
	ruuSeq     []uint64
	ruuDone    []uint64 // completion cycle once issued
	// ruuLive[i] == ruuSeq[i] while slot i's entry has not yet produced
	// its value, 0 from its completion event on. It folds the
	// three-load liveness test (state, seq, completion cycle) every
	// dependency check performs into one load-and-compare: a dep
	// {idx,seq} is outstanding iff ruuLive[idx] == seq. Slot reuse
	// falls out of the same compare — a recycled slot carries the new
	// entry's seq, which never matches a stale dep's.
	ruuLive []uint64
	// The wakeup network is an intrusive edge list: consEdges holds three
	// preallocated edge slots per RUU entry (one per possible dependency,
	// edge id = 3*consumer+depOrdinal), and ruuConsHead chains, per
	// producer, the edges of the younger entries waiting on its
	// completion (-1 = none). Linking a dependency is two stores and a
	// head swap — no slice header traffic — and the hot loop never
	// allocates. An edge fires exactly once (its producer completes
	// exactly once before its consumer's slot can be reused), so waking
	// consumers in reverse-link order is unobservable: pending
	// decrements and ready-bit sets commute.
	ruuConsHead []int32
	consEdges   []consEdge
	ruuInst     []isa.Inst
	ruuMask  int
	ruuHead  int
	ruuCount int

	// LSQ circular buffer, struct-of-arrays: addr/seq are what the
	// disambiguation and commit paths scan; lsqMeta is the rest.
	lsqAddr  []uint64
	lsqSeq   []uint64
	lsqMeta  []lsqMeta
	lsqMask  int
	lsqHead  int
	lsqCount int

	// IFQ circular buffer.
	ifq      []ifqEntry
	ifqMask  int
	ifqHead  int
	ifqCount int

	cycle   uint64
	seq     uint64
	stats   Stats
	drained bool

	// fatal latches the first internal-consistency failure (e.g. a $sp
	// shadow disagreement). Run returns it at the top of the next
	// iteration instead of the stage panicking mid-cycle.
	fatal error
	// inject is the active fault plan, nil for clean runs so the hot loop
	// pays a single nil check per cycle.
	inject *faultinject.Plan
	// probe is the optional telemetry probe (nil when observability is
	// off — the same single-nil-check discipline as inject). trace is
	// probe.Trace hoisted so the dispatch/issue/commit paths test one
	// pointer; probeNext is the next occupancy-sample cycle.
	probe     *telemetry.Probe
	trace     *telemetry.PipelineTrace
	probeNext uint64

	// Event-driven scheduler state (see scheduler.go).
	//
	// readyBits is a bitmap over RUU slots of dispatched entries whose
	// dependencies have all completed; issue() walks the set bits in
	// ring order from ruuHead, which is program order for the live
	// window. readyCount tracks the population.
	readyBits  []uint64
	readyCount int
	// wheel is the completion event ring: bucket (cycle % wheelBuckets)
	// holds the entries completing at that cycle. overflow catches the
	// rare completion beyond the wheel horizon. eventCount tracks
	// scheduled-but-unfired completions across both.
	wheel      [wheelBuckets][]int32
	overflow   []overflowEvent
	eventCount int
	// wheelSlab is the shared backing array the buckets start from, sized
	// so a typical cycle's completions never grow a bucket onto the heap
	// mid-run; a bucket that does outgrow its slab segment keeps its
	// grown backing across Resets.
	wheelSlab []int32

	// storeIdx maps addresses to the youngest in-flight store in the
	// LSQ; older same-address stores are reached through prevStore
	// chains. Entries are removed when their store commits.
	storeIdx *storeTab

	// regProd maps architectural registers to their youngest producer.
	regProd [isa.NumRegs]dep
	// svfProd maps SVF entry indices to the youngest morphed store, the
	// renaming that forwards stack values at register speed.
	svfProd     []dep
	svfProdMask uint64

	// depBuf/ndeps is dispatch's dependency scratch: deps are only live
	// between dispatchInst collecting them and linkDeps installing them,
	// so they never need a per-entry home in the RUU.
	depBuf [3]dep
	ndeps  int8

	// Hot-path scalars hoisted out of Config() struct returns.
	svfBanked   bool
	svfInfinite bool
	il1HitLat   int
	scHitLat    int
	// predPerfect short-circuits the branch-predictor interface calls:
	// the perfect predictor is stateless and always right, so fetch can
	// skip Predict/Update entirely.
	predPerfect bool

	// Front-end stall machinery.
	fetchBlocked   bool
	fetchResumeAt  uint64 // 0 = waiting for the branch to issue
	dispatchHoldTo uint64 // squash bubble
	interlock      dep    // non-immediate $sp update being waited on
	// fetchBlock is the IL1 line currently being fetched from; crossing
	// into a new line probes the instruction cache.
	fetchBlock   uint64
	fetchStallTo uint64 // IL1 miss service
	// fetchFast is the stream devirtualized: when Run is driven by a
	// replayed in-memory trace (the campaign common case after the trace
	// cache), fetch calls the concrete SliceStream directly instead of
	// through the interface.
	fetchFast *trace.SliceStream

	nextCtxSwitch uint64
}

// New builds a pipeline for the environment.
func New(env Env) (*Pipeline, error) {
	p := &Pipeline{}
	if err := p.Reset(env); err != nil {
		return nil, err
	}
	return p, nil
}

// resetSlice returns s resized to n with every element zeroed, reusing the
// backing array when it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// Reset reinitialises the pipeline for env, reusing every ring, bitmap,
// event-wheel bucket and consumer-list allocation from the previous run
// whose size still fits. A Reset pipeline is indistinguishable from a
// freshly built one: New itself is alloc + Reset, and the golden fixture's
// 72 back-to-back runs in one process exercise recycled machines against
// the recorded stats.
func (p *Pipeline) Reset(env Env) error {
	if err := env.Machine.Validate(); err != nil {
		return err
	}
	if env.Hier == nil {
		return fmt.Errorf("pipeline: nil memory hierarchy")
	}
	if env.Pred == nil {
		return fmt.Errorf("pipeline: nil branch predictor")
	}
	switch env.Stack.Policy {
	case PolicySVF:
		if env.Stack.SVF == nil {
			return fmt.Errorf("pipeline: SVF policy with nil SVF")
		}
	case PolicyStackCache:
		if env.Stack.SC == nil {
			return fmt.Errorf("pipeline: stack-cache policy with nil stack cache")
		}
	case PolicyRSE:
		if env.Stack.RSE == nil {
			return fmt.Errorf("pipeline: RSE policy with nil engine")
		}
	}
	p.cfg = env.Machine
	p.env = env

	nr := ceilPow2(env.Machine.RUUSize)
	p.ruuState = resetSlice(p.ruuState, nr)
	p.ruuPending = resetSlice(p.ruuPending, nr)
	p.ruuInfo = resetSlice(p.ruuInfo, nr)
	p.ruuSeq = resetSlice(p.ruuSeq, nr)
	p.ruuDone = resetSlice(p.ruuDone, nr)
	p.ruuLive = resetSlice(p.ruuLive, nr)
	p.ruuInst = resetSlice(p.ruuInst, nr)
	p.ruuConsHead = resetSlice(p.ruuConsHead, nr)
	for i := range p.ruuConsHead {
		p.ruuConsHead[i] = -1
	}
	p.consEdges = resetSlice(p.consEdges, 3*nr)
	p.ruuMask = nr - 1
	p.ruuHead, p.ruuCount = 0, 0

	nl := ceilPow2(env.Machine.LSQSize)
	p.lsqAddr = resetSlice(p.lsqAddr, nl)
	p.lsqSeq = resetSlice(p.lsqSeq, nl)
	p.lsqMeta = resetSlice(p.lsqMeta, nl)
	p.lsqMask = nl - 1
	p.lsqHead, p.lsqCount = 0, 0

	nf := ceilPow2(env.Machine.IFQSize)
	p.ifq = resetSlice(p.ifq, nf)
	p.ifqMask = nf - 1
	p.ifqHead, p.ifqCount = 0, 0

	p.cycle, p.seq = 0, 0
	p.stats = Stats{}
	p.drained = false
	p.fatal = nil

	p.readyBits = resetSlice(p.readyBits, (nr+63)/64)
	p.readyCount = 0
	if p.wheelSlab == nil {
		p.wheelSlab = make([]int32, wheelBuckets*wheelBucketCap)
	}
	for i := range p.wheel {
		if cap(p.wheel[i]) == 0 {
			o := i * wheelBucketCap
			p.wheel[i] = p.wheelSlab[o:o : o+wheelBucketCap]
		} else {
			p.wheel[i] = p.wheel[i][:0]
		}
	}
	p.overflow = p.overflow[:0]
	p.eventCount = 0

	if p.storeIdx == nil || !p.storeIdx.fits(env.Machine.LSQSize) {
		p.storeIdx = newStoreTab(env.Machine.LSQSize)
	} else {
		p.storeIdx.reset()
	}

	for i := range p.regProd {
		p.regProd[i] = dep{idx: noDep}
	}
	p.svfProd = p.svfProd[:0]
	p.svfProdMask = 0
	p.svfBanked, p.svfInfinite = false, false
	if env.Stack.Policy == PolicySVF {
		n := env.Stack.SVF.Entries()
		if n == 0 {
			n = 1 << 16 // infinite SVF: hash the index space
		}
		if cap(p.svfProd) >= n {
			p.svfProd = p.svfProd[:n]
		} else {
			p.svfProd = make([]dep, n)
		}
		for i := range p.svfProd {
			p.svfProd[i] = dep{idx: noDep}
		}
		p.svfProdMask = uint64(n - 1)
		cfg := env.Stack.SVF.Config()
		p.svfBanked = cfg.Banks > 0
		p.svfInfinite = cfg.Infinite
	}
	p.scHitLat = 0
	if env.Stack.Policy == PolicyStackCache {
		p.scHitLat = env.Stack.SC.Config().HitLatency
	}
	p.il1HitLat = env.Hier.IL1.Config().HitLatency
	_, p.predPerfect = env.Pred.(*bpred.Perfect)

	p.depBuf = [3]dep{}
	p.ndeps = 0

	p.fetchBlocked = false
	p.fetchResumeAt = 0
	p.dispatchHoldTo = 0
	p.interlock = dep{idx: noDep}
	p.fetchBlock = 0
	p.fetchStallTo = 0
	p.fetchFast = nil

	p.nextCtxSwitch = 0
	if env.CtxSwitchPeriod > 0 {
		p.nextCtxSwitch = env.CtxSwitchPeriod
	}
	p.inject = nil
	if env.Inject.Active() {
		p.inject = env.Inject
	}
	p.probe, p.trace, p.probeNext = nil, nil, 0
	if env.Probe != nil {
		p.probe = env.Probe
		p.trace = env.Probe.Trace
		p.probeNext = env.Probe.Interval()
	}
	return nil
}

// Stats returns the counters so far.
func (p *Pipeline) Stats() Stats { return p.stats }

// Cycle returns the current clock, for fault diagnostics.
func (p *Pipeline) Cycle() uint64 { return p.cycle }

// deadlockWatchdogCycles is the commit-progress watchdog horizon: if no
// instruction commits for this many consecutive cycles, Run aborts with a
// diagnostic instead of spinning forever. The bound is far beyond any
// legitimate stall in the model — the longest real dependence chains
// through the memory hierarchy resolve within a few hundred cycles — so
// tripping it means a genuine scheduling bug (an entry that lost its
// wakeup, a dependence cycle) rather than a slow workload.
const deadlockWatchdogCycles = 200_000

// ctxCheckInterval is how many Run-loop iterations pass between context
// polls. A power of two so the check is a mask; small enough that an
// already-cancelled context returns within a bounded (and short) number of
// cycles, large enough that the atomic load in ctx.Err() stays invisible
// next to a cycle's real work.
const ctxCheckInterval = 4096

// Run drives the pipeline until maxInsts instructions commit or the stream
// ends, returning the final statistics. The context is polled every
// ctxCheckInterval loop iterations (the first poll happens before any
// cycle executes), so cancellation and deadlines stop in-flight runs
// promptly; the returned error is then ctx.Err(). Context polling never
// alters the counters of a run that completes.
func (p *Pipeline) Run(ctx context.Context, s trace.Stream, maxInsts uint64) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.fetchFast, _ = s.(*trace.SliceStream)
	lastCommit := uint64(0)
	lastCommitted := uint64(0)
	check := uint64(0)
	for p.stats.Committed < maxInsts {
		if check&(ctxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				p.stats.Cycles = p.cycle
				return p.stats, err
			}
		}
		check++
		if p.fatal != nil {
			p.stats.Cycles = p.cycle
			return p.stats, p.fatal
		}
		if p.drained && p.ruuCount == 0 && p.ifqCount == 0 {
			break
		}
		p.cycle++
		stalled := false
		if p.inject != nil {
			if p.inject.PanicCycle != 0 && p.cycle >= p.inject.PanicCycle {
				panic(fmt.Sprintf("faultinject: forced panic at cycle %d (plan %s)", p.cycle, p.inject))
			}
			stalled = p.inject.StallCycle != 0 && p.cycle > p.inject.StallCycle
		}
		if !stalled {
			p.tickEvents()
		}
		p.commit()
		p.issue()
		p.dispatch()
		p.fetch(s)
		if p.probe != nil && p.cycle >= p.probeNext {
			p.probeSample()
		}
		if p.stats.Committed != lastCommitted {
			lastCommitted = p.stats.Committed
			lastCommit = p.cycle
		} else if p.cycle-lastCommit > deadlockWatchdogCycles {
			return p.stats, p.deadlockError(lastCommit)
		}
		if !stalled {
			// A stalled machine must spin cycle by cycle into the
			// watchdog; fastForward's reasoning assumes events fire.
			p.fastForward(maxInsts, lastCommit+deadlockWatchdogCycles+1)
		}
	}
	p.stats.Cycles = p.cycle
	return p.stats, nil
}

// DeadlockError is the tripped commit-progress watchdog: no instruction
// committed for SinceCommit cycles. State carries the bounded pipeline
// dump so a real deadlock is debuggable from the error alone.
type DeadlockError struct {
	// Cycle is the clock when the watchdog fired; Committed the
	// instructions retired by then.
	Cycle, Committed uint64
	// SinceCommit is how long the machine made no progress.
	SinceCommit uint64
	// State is a bounded pipeline-state dump (StateDump).
	State string
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("pipeline: no commit for %d cycles at cycle %d (deadlock?); %s",
		e.SinceCommit, e.Cycle, e.State)
}

// deadlockError builds the watchdog's typed error.
func (p *Pipeline) deadlockError(lastCommit uint64) error {
	return &DeadlockError{
		Cycle:       p.cycle,
		Committed:   p.stats.Committed,
		SinceCommit: p.cycle - lastCommit,
		State:       p.StateDump(4),
	}
}

// StateDump renders a bounded snapshot of the machine's scheduling state:
// occupancies, front-end stall reasons, and up to maxEntries RUU entries
// from the head — the instructions the window is stuck behind. It is the
// diagnostic attached to watchdog errors and contained faults; maxEntries
// keeps it a few lines, never the whole window.
func (p *Pipeline) StateDump(maxEntries int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d committed=%d RUU %d/%d LSQ %d/%d IFQ %d/%d ready=%d events=%d",
		p.cycle, p.stats.Committed,
		p.ruuCount, p.cfg.RUUSize, p.lsqCount, p.cfg.LSQSize, p.ifqCount, p.cfg.IFQSize,
		p.readyCount, p.eventCount)
	fmt.Fprintf(&b, " fetchBlocked=%v fetchResumeAt=%d interlock=%v drained=%v",
		p.fetchBlocked, p.fetchResumeAt, p.interlock.idx != noDep, p.drained)
	if st := &p.env.Stack; st.spKnown {
		fmt.Fprintf(&b, " decSP=%#x", st.sp)
	}
	for i := 0; i < p.ruuCount && i < maxEntries; i++ {
		j := (p.ruuHead + i) & p.ruuMask
		fmt.Fprintf(&b, "; ruu+%d: pc=%#x kind=%s seq=%d state=%s pending=%d completeAt=%d route=%d",
			i, p.ruuInst[j].PC, p.ruuInst[j].Kind, p.ruuSeq[j], p.ruuState[j],
			p.ruuPending[j], p.ruuDone[j], infoRoute(p.ruuInfo[j]))
	}
	return b.String()
}

// done reports whether a dependency has produced its value by now: the
// producer completed (its ruuLive was cleared by its completion event),
// committed, or its slot was recycled — all of which break the seq match.
func (p *Pipeline) done(d dep) bool {
	return d.idx == noDep || p.ruuLive[d.idx] != d.seq
}

// slotDone reports whether RUU slot i has issued and completed.
func (p *Pipeline) slotDone(i int) bool {
	return p.ruuState[i] == stIssued && p.ruuDone[i] <= p.cycle
}

// ---- commit ----

func (p *Pipeline) commit() {
	width := p.cfg.Width
	ruuState := p.ruuState
	ruuDone := p.ruuDone[:len(ruuState)]
	for n := 0; n < width && p.ruuCount > 0; n++ {
		h := p.ruuHead & (len(ruuState) - 1) // == ruuHead; anchors bounds proofs
		if ruuState[h] != stIssued || ruuDone[h] > p.cycle {
			return
		}
		info := p.ruuInfo[h]
		if info&infoIsMem != 0 {
			p.stats.MemRefs++
			switch infoRoute(info) {
			case RouteDL1:
				p.stats.DL1Refs++
			case RouteStack:
				p.stats.StackRefs++
			case RouteSVF, RouteRSE:
				p.stats.SVFRefs++
			}
			// The LSQ retires in program order with its RUU entries.
			if p.lsqCount > 0 && p.lsqSeq[p.lsqHead] == p.ruuSeq[h] {
				lh := p.lsqHead
				if p.lsqMeta[lh].isStore {
					// Drop the store index entry if this store is
					// still the youngest to its address.
					p.storeIdx.del(p.lsqAddr[lh], p.lsqSeq[lh])
				}
				p.lsqHead = (lh + 1) & p.lsqMask
				p.lsqCount--
			}
		}
		if p.trace != nil {
			p.trace.Commit(p.ruuSeq[h], p.cycle, routeName(infoRoute(info)),
				info&infoForwarded != 0, info&infoMispredict != 0)
		}
		ruuState[h] = stFree
		p.ruuHead = (h + 1) & p.ruuMask
		p.ruuCount--
		p.stats.Committed++

		if p.nextCtxSwitch > 0 && p.stats.Committed >= p.nextCtxSwitch {
			p.contextSwitch()
			p.nextCtxSwitch += p.env.CtxSwitchPeriod
		}
	}
}

func (p *Pipeline) contextSwitch() {
	p.stats.CtxSwitches++
	p.env.Stack.ContextSwitch()
	p.holdForRSE()
}

// ---- issue ----

// issue selects ready entries in program order, acquiring issue slots,
// functional units and ports exactly as the per-cycle RUU scan did.
// Selection walks the ready bitmap in ring order from ruuHead (program
// order for the live window). Entries blocked on a resource keep their
// bit set (and re-charge the same port-conflict counters next cycle, as
// the scan's re-polling did); issued entries clear their bit and schedule
// their completion on the event wheel.
//
// The walk is branch-free with respect to the ring wrap: the head word's
// high bits (the oldest entries) are visited first via a single mask
// applied before the loop, the remaining words follow in ring order, and
// the head word's low bits (the wrapped, youngest entries) close the walk
// — no per-bit wrap conditional inside the TrailingZeros64 loop.
func (p *Pipeline) issue() {
	// remaining counts unvisited ready bits so the walk stops as soon as
	// the last one has been seen, instead of scanning trailing empty
	// words every cycle.
	remaining := p.readyCount
	if remaining == 0 {
		return
	}
	width := p.cfg.Width
	intALU := p.cfg.IntALU
	intMult := p.cfg.IntMult
	dl1Max := p.cfg.DL1Ports
	stackMax := 2 * p.env.Stack.Ports // half-port units; 0 = unlimited
	issued := 0
	dl1Ports := 0
	stackPorts := 0
	alu := 0
	mult := 0
	// Counter deltas accumulate in registers; the single exit below
	// flushes them (the conflict counters tick on every blocked visit —
	// hundreds of thousands of times per run on port-bound configs).
	dl1Conf := uint64(0)
	stackConf := uint64(0)
	issuedBits := 0
	cycle := p.cycle
	var banksBusy uint64 // bitmap of SVF banks used this cycle
	// Local slice headers keep the walk's loads and stores off the
	// Pipeline pointer (the calls below can't retarget these slices).
	ready := p.readyBits
	ruuInfo := p.ruuInfo
	mask := len(ruuInfo) - 1 // == ruuMask; anchors the bounds proofs below
	ruuState := p.ruuState[:len(ruuInfo)]
	ruuDone := p.ruuDone[:len(ruuInfo)]
	nw := len(ready)
	headWord := p.ruuHead >> 6
	headBit := uint(p.ruuHead) & 63
	wi := headWord
	w := ready[wi] &^ (1<<headBit - 1)
	for k := 0; ; {
		for w != 0 {
			if issued >= width {
				goto out
			}
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			remaining--
			i := int32((wi<<6 | b) & mask)
			info := ruuInfo[i]
			// Resource acquisition.
			var lat int
			switch {
			case info&infoIsMem != 0:
				// Address generation occupies an extra issue slot and
				// an ALU; morphed SVF references resolve their address
				// in decode and skip it (§3.1).
				slots := 1
				if info&infoAGEN != 0 {
					if alu >= intALU || issued+2 > width {
						continue
					}
					slots = 2
				}
				if rt := infoRoute(info); rt == RouteDL1 {
					if dl1Ports >= dl1Max {
						dl1Conf++
						continue
					}
					dl1Ports++
				} else if rt == RouteSVF && p.svfBanked {
					// A banked SVF serves one access per bank per cycle
					// (§7); the bank index was precomputed at dispatch.
					bit := uint64(1) << (info >> infoBankShift & 63)
					if banksBusy&bit != 0 {
						stackConf++
						continue
					}
					banksBusy |= bit
				} else {
					// Port accounting in half-port units: loads need a
					// full port; morphed SVF stores (and RSE register
					// writes) drain through the banked store path at
					// half a port's cost.
					cost := 2
					if info&infoCost1 != 0 {
						cost = 1
					}
					if stackMax > 0 && stackPorts+cost > stackMax {
						stackConf++
						continue
					}
					stackPorts += cost
				}
				if info&infoAGEN != 0 {
					alu++
				}
				issued += slots - 1
				lat = int(info & infoLatMask)
			case info&infoIsMult != 0:
				if mult >= intMult {
					continue
				}
				mult++
				lat = p.cfg.MultLat
			default:
				if alu >= intALU {
					continue
				}
				alu++
				lat = p.cfg.ALULat
			}
			ready[wi] &^= 1 << uint(b)
			issuedBits++
			ruuState[i] = stIssued
			at := cycle + uint64(lat)
			ruuDone[i] = at
			p.scheduleCompletion(i, at)
			if p.trace != nil {
				p.trace.Issue(p.ruuSeq[i], cycle, at)
			}
			issued++
			if info&infoMispredict != 0 {
				// The front end refetches once the branch resolves.
				p.fetchResumeAt = at + uint64(p.cfg.MispredictPenalty)
			}
		}
		if remaining == 0 {
			break
		}
		k++
		switch {
		case k < nw:
			wi = (wi + 1) & (nw - 1) // nw is a power of two
			w = ready[wi]
		case k == nw:
			// The head word's wrapped low bits close the walk; the mask
			// is zero when the head is word-aligned.
			wi = headWord
			w = ready[wi] & (1<<headBit - 1)
		default:
			goto out
		}
	}
out:
	p.readyCount -= issuedBits
	p.stats.DL1PortConflicts += dl1Conf
	p.stats.StackPortConflicts += stackConf
}

// ---- dispatch ----

// holdDispatch stalls dispatch until the given cycle. Holds compose by
// max, never by overwrite: a squash landing while an RSE flush penalty is
// still draining must not shorten the earlier hold (the spill/fill engine
// stays busy regardless of what the front end does meanwhile).
func (p *Pipeline) holdDispatch(until uint64) {
	if until > p.dispatchHoldTo {
		p.dispatchHoldTo = until
	}
}

// holdForRSE stalls the front end behind the register stack engine's
// pending spill/fill work (frame overflow, underflow or a context-switch
// flush).
func (p *Pipeline) holdForRSE() {
	if p.env.Stack.Policy != PolicyRSE {
		return
	}
	if pen := p.env.Stack.RSE.TakePenalty(); pen > 0 {
		p.holdDispatch(p.cycle + uint64(pen))
	}
}

func (p *Pipeline) dispatch() {
	if p.cycle < p.dispatchHoldTo {
		return
	}
	if p.interlock.idx != noDep {
		if !p.done(p.interlock) {
			p.stats.Interlocks++
			return
		}
		p.interlock = dep{idx: noDep}
	}
	for n := 0; n < p.cfg.Width && p.ifqCount > 0; n++ {
		fe := &p.ifq[p.ifqHead]
		if fe.fetchedAt >= p.cycle {
			return // still in decode
		}
		if p.ruuCount >= p.cfg.RUUSize {
			p.stats.RUUFullStalls++
			return
		}
		// LSQ occupancy first: the queue is rarely full, so the common
		// path skips the instruction-kind test entirely.
		if p.lsqCount >= p.cfg.LSQSize && fe.inst.IsMem() {
			p.stats.LSQFullStalls++
			return
		}
		p.ifqHead = (p.ifqHead + 1) & p.ifqMask
		p.ifqCount--

		ruuInst := p.ruuInst
		idx := (p.ruuHead + p.ruuCount) & (len(ruuInst) - 1) // == ruuMask
		p.ruuCount++
		p.seq++
		// The freed IFQ slot stays intact until fetch() runs later this
		// cycle, so reading fe through the copy is safe.
		ruuInst[idx] = fe.inst
		p.ruuSeq[idx] = p.seq
		p.ruuLive[idx] = p.seq
		p.ruuState[idx] = stDispatched
		p.ruuDone[idx] = 0
		p.ruuPending[idx] = 0
		p.ndeps = 0
		info := uint32(0)
		if fe.mispredict {
			info = infoMispredict
		}

		if p.trace != nil {
			p.trace.Dispatch(p.seq, fe.inst.PC, fe.inst.Kind.String(), fe.fetchedAt, p.cycle)
		}
		info, stallAfter := p.dispatchInst(int32(idx), info)
		p.ruuInfo[idx] = info
		p.linkDeps(int32(idx))
		if stallAfter {
			return
		}
	}
}

// addDep records a dependency on the youngest producer of reg.
func (p *Pipeline) addDep(reg uint8) {
	if reg == isa.RegZero {
		return
	}
	d := p.regProd[reg]
	if d.idx == noDep {
		return
	}
	p.depBuf[p.ndeps] = d
	p.ndeps++
}

func (p *Pipeline) addDepRaw(d dep) {
	if d.idx == noDep {
		return
	}
	p.depBuf[p.ndeps] = d
	p.ndeps++
}

// setProducer marks idx as the youngest writer of reg.
func (p *Pipeline) setProducer(reg uint8, idx int32, seq uint64) {
	if reg == isa.RegZero {
		return
	}
	p.regProd[reg] = dep{idx: idx, seq: seq}
}

// dispatchInst fills in routing, dependencies and functional effects for a
// newly allocated entry, returning its assembled ruuInfo word. It reports
// whether dispatch must stop afterwards (interlock or squash bubble).
func (p *Pipeline) dispatchInst(idx int32, info uint32) (uint32, bool) {
	inst := &p.ruuInst[idx]
	switch inst.Kind {
	case isa.KindSPAdjust:
		return info, p.dispatchSPAdjust(idx)
	case isa.KindLoad, isa.KindStore:
		return p.dispatchMem(idx, info)
	case isa.KindBranch:
		p.addDep(inst.Src1)
		return info, false
	case isa.KindCall:
		p.setProducer(inst.Dst, idx, p.ruuSeq[idx])
		return info, false
	case isa.KindReturn:
		p.addDep(inst.Src1)
		return info, false
	default: // ALU, Mult, Jump, Nop
		if inst.Kind == isa.KindMult {
			info |= infoIsMult
		}
		p.addDep(inst.Src1)
		p.addDep(inst.Src2)
		p.setProducer(inst.Dst, idx, p.ruuSeq[idx])
		return info, false
	}
}

func (p *Pipeline) dispatchSPAdjust(idx int32) bool {
	inst := &p.ruuInst[idx]
	seq := p.ruuSeq[idx]
	if inst.SPImmediate() {
		// Tracked by the decode stage's speculative $sp copy: no
		// register dependency for downstream morphing.
		p.addDep(inst.Src1)
	} else {
		p.addDep(inst.Src1)
		p.addDep(inst.Src2)
	}
	// Update the decode-stage $sp shadow (and the SVF window / RSE
	// frame stack).
	if err := p.env.Stack.AdjustSP(inst); err != nil {
		p.fatal = err
		return true
	}
	p.holdForRSE()
	p.setProducer(isa.RegSP, idx, seq)
	if !inst.SPImmediate() && p.env.Stack.Policy == PolicySVF {
		// §3.1: the decode interlock stalls until the computed $sp
		// value resolves.
		p.interlock = dep{idx: idx, seq: seq}
		return true
	}
	return false
}

func (p *Pipeline) dispatchMem(idx int32, info uint32) (uint32, bool) {
	inst := &p.ruuInst[idx]
	seq := p.ruuSeq[idx]
	info |= infoIsMem
	isStore := inst.Kind == isa.KindStore
	st := &p.env.Stack
	if inst.SPRelative() {
		if err := st.AnchorSP(inst); err != nil {
			p.fatal = err
			return info, true
		}
	}
	inStack := p.env.Layout.InStack(inst.Addr)
	rt := st.Route(inst, inStack)
	// A non-$sp SVF reference reaches the SVF only after address
	// generation and the bounds check (§3.2). Figure 5's limit study
	// morphs every stack reference into a register move; the NoMorph
	// ablation morphs none.
	rerouted := rt == RouteSVF && (p.cfg.NoMorph || !inst.SPRelative() && !p.svfInfinite)

	// Dependencies.
	dropBase := false
	if rt == RouteSVF && !rerouted {
		// Morphed: the address comes from the decode-stage $sp copy.
		dropBase = true
	}
	if p.cfg.NoAddrCalcOp && inStack && inst.SPRelative() {
		dropBase = true
	}
	if inst.SPRelative() && (st.Policy == PolicySVF || st.Policy == PolicyRSE) {
		// Even outside the window, $sp+imm resolves in decode.
		dropBase = true
	}
	if !dropBase {
		info |= infoAGEN
	}
	if isStore {
		p.addDep(inst.Src1) // data
		if !dropBase {
			p.addDep(inst.Base)
		}
	} else if !dropBase {
		p.addDep(inst.Base)
	}

	var memLat int32
	forwarded := false
	squash := false
	switch {
	case rt == RouteSVF && !rerouted:
		svfIdx := (inst.Addr / isa.WordSize) & p.svfProdMask
		if !isStore {
			// Morphed load: renamed against the youngest morphed
			// store to the same SVF register.
			p.addDepRaw(p.svfProd[svfIdx])
			// §3.2 hazard: an older in-flight $gpr store to the same
			// address is invisible to the renamer; detect and squash.
			// The infinite-SVF limit study ignores the hazard, so it
			// skips the store-table probe entirely.
			if !p.svfInfinite {
				if si := p.findLSQStore(inst.Addr, true); si >= 0 {
					p.stats.Squashes++
					p.addDepRaw(dep{idx: p.lsqMeta[si].ruuIdx, seq: p.lsqSeq[si]})
					if !p.cfg.NoSquash {
						squash = true
					}
				}
			}
		}
		memLat = int32(st.Access(rt, inst, false))
		if isStore {
			p.svfProd[svfIdx] = dep{idx: idx, seq: seq}
		}
	case rt == RouteRSE:
		memLat = int32(st.Access(rt, inst, false))
	default:
		memLat = p.accessMem(rt, inst, isStore, rerouted, &forwarded)
	}

	// Every memory reference occupies an LSQ slot, including morphed
	// references (their disambiguation uop, §3.2).
	li := (p.lsqHead + p.lsqCount) & p.lsqMask
	p.lsqAddr[li] = inst.Addr
	p.lsqSeq[li] = seq
	m := &p.lsqMeta[li]
	m.ruuIdx = idx
	m.isStore = isStore
	m.gprStore = isStore && !inst.SPRelative() && inStack
	m.prevStore = noDep
	m.prevStoreSeq = 0
	if isStore {
		if prev, ok := p.storeIdx.putGet(inst.Addr, lsqRef{idx: int32(li), seq: seq}); ok {
			m.prevStore, m.prevStoreSeq = prev.idx, prev.seq
		}
	}
	p.lsqCount++

	if !isStore {
		p.setProducer(inst.Dst, idx, seq)
	}

	info |= uint32(memLat)&infoLatMask | uint32(rt)<<infoRouteShift
	if forwarded {
		info |= infoForwarded
	}
	if (rt == RouteSVF || rt == RouteRSE) && !rerouted && isStore {
		info |= infoCost1
	}
	if rt == RouteSVF && p.svfBanked {
		info |= uint32(st.SVF.Bank(inst.Addr)) << infoBankShift
	}

	if squash {
		// Pipeline flush and re-execution, charged as a front-end
		// bubble.
		p.holdDispatch(p.cycle + uint64(p.cfg.SquashPenalty))
		if p.trace != nil {
			p.trace.Marker("squash", p.cycle)
		}
		return info, true
	}
	return info, false
}

// accessMem performs the functional access of a reference that went
// through address generation — DL1, stack cache or rerouted SVF —
// applying store-to-load forwarding, and returns the load-use latency.
func (p *Pipeline) accessMem(rt Route, inst *isa.Inst, isStore, rerouted bool, forwarded *bool) int32 {
	if !isStore {
		if si := p.findLSQStore(inst.Addr, false); si >= 0 {
			// LSQ forwarding: the load's value comes from the store
			// buffer after the forwarding delay.
			*forwarded = true
			p.stats.Forwards++
			p.addDepRaw(dep{idx: p.lsqMeta[si].ruuIdx, seq: p.lsqSeq[si]})
			return int32(p.cfg.StoreForwardLat)
		}
	}
	if rt == RouteDL1 {
		lat := p.env.Hier.DL1.Access(inst.Addr, isStore)
		if isStore {
			// Stores retire into the store buffer; the fill happens off
			// the critical path.
			return 1
		}
		return int32(lat)
	}
	lat := p.env.Stack.Access(rt, inst, rerouted)
	if isStore && rt == RouteStack && lat <= p.scHitLat {
		// A stack-cache write hit retires into the store buffer. A write
		// miss must read the rest of the line before the write completes
		// (§5.3.2); the fill occupies the small structure's port, so the
		// store cannot slip into a write buffer. The SVF's allocation
		// kills make the equivalent first store to a new frame free.
		return 1
	}
	return int32(lat)
}

// findLSQStore returns the youngest in-flight store to addr, or -1.
// gprOnly restricts the search to $gpr-addressed stack stores (the §3.2
// collision hazard). Instead of scanning the whole LSQ youngest-first as
// the original did, it follows the per-address prevStore chain from the
// storeIdx map — same result, O(same-address stores) work. A chain link
// whose slot is unoccupied or reused belongs to a committed store, and
// in-order commit means every older link has committed too, so the walk
// stops there.
func (p *Pipeline) findLSQStore(addr uint64, gprOnly bool) int {
	r, ok := p.storeIdx.get(addr)
	if !ok {
		return -1
	}
	for r.idx >= 0 {
		if (int(r.idx)-p.lsqHead)&p.lsqMask >= p.lsqCount {
			break // slot no longer occupied: committed
		}
		if p.lsqSeq[r.idx] != r.seq {
			break // slot reused: the recorded store committed
		}
		m := &p.lsqMeta[r.idx]
		if !gprOnly || m.gprStore {
			return int(r.idx)
		}
		r = lsqRef{idx: m.prevStore, seq: m.prevStoreSeq}
	}
	return -1
}

// ---- fetch ----

func (p *Pipeline) fetch(s trace.Stream) {
	if p.fetchBlocked {
		if p.fetchResumeAt == 0 || p.cycle < p.fetchResumeAt {
			return
		}
		p.fetchBlocked = false
		p.fetchResumeAt = 0
	}
	if p.cycle < p.fetchStallTo {
		return // instruction-cache miss in service
	}
	for n := 0; n < p.cfg.Width && p.ifqCount < p.cfg.IFQSize; n++ {
		if p.drained {
			return
		}
		// Decode straight into the IFQ slot; the slot is free, and one
		// copy beats two.
		fe := &p.ifq[(p.ifqHead+p.ifqCount)&p.ifqMask]
		var ok bool
		if fs := p.fetchFast; fs != nil {
			ok = fs.Next(&fe.inst) // direct, inlinable call
		} else {
			ok = s.Next(&fe.inst)
		}
		if !ok {
			p.drained = true
			return
		}
		fe.fetchedAt = p.cycle
		fe.mispredict = false
		p.stats.Fetched++
		// Crossing into a new IL1 line probes the instruction cache; a
		// miss stalls the front end for the fill.
		if blk := fe.inst.PC &^ 63; blk != p.fetchBlock {
			p.fetchBlock = blk
			lat := p.env.Hier.IL1.Access(fe.inst.PC, false)
			if il1Hit := p.il1HitLat; lat > il1Hit {
				p.stats.IL1Misses++
				p.fetchStallTo = p.cycle + uint64(lat-il1Hit)
			}
		}
		p.ifqCount++
		if fe.inst.Kind == isa.KindBranch {
			p.stats.Branches++
			if p.predPerfect {
				// The perfect predictor is stateless and always agrees
				// with the outcome; skip the interface calls.
				continue
			}
			actual := fe.inst.Taken()
			pred := p.env.Pred.Predict(fe.inst.PC, actual)
			p.env.Pred.Update(fe.inst.PC, actual)
			if pred != actual {
				p.stats.Mispredicts++
				fe.mispredict = true
				p.fetchBlocked = true
				p.fetchResumeAt = 0 // resumes when the branch issues
				return
			}
		}
	}
}
