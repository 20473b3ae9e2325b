// Package faultinject provides deterministic, build-time-free fault
// injection for supervised simulation runs. A Plan describes a small set of
// data-level and scheduler-level faults — corrupted trace records,
// premature stream EOF, an artificial panic at a chosen cycle, stalled
// completion events — that the sim and pipeline layers apply to matching
// runs when the plan is attached to sim.Options.FaultPlan, plus two
// storage-level faults (kill-mid-write, journal-torn-tail) that the
// campaign journal (internal/journal) applies to its own append path to
// rehearse crash recovery.
//
// Every choice a plan makes is derived from its Seed with math/rand, and
// the generator is advanced only when a fault actually fires, so the same
// plan over the same instruction stream injects byte-identical faults on
// every execution. That determinism is what lets the chaos test suite (and
// `svfexp -inject`) assert on exact outcomes instead of flaky ones.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"svf/internal/isa"
	"svf/internal/trace"
)

// Plan is one deterministic fault-injection schedule. The zero value
// injects nothing. Plans are data only: no build tags, no globals — a plan
// travels with the run options and affects exactly the runs it matches.
type Plan struct {
	// Seed drives every pseudo-random choice the plan makes (which field
	// of a corrupted record to damage, and how). Two runs with the same
	// seed and stream observe identical faults.
	Seed int64
	// Bench restricts the plan to workloads whose ID contains this
	// substring; empty matches every workload.
	Bench string
	// PanicCycle, when non-zero, forces an artificial panic once the
	// pipeline clock reaches that cycle — the stand-in for an internal
	// assertion failure.
	PanicCycle uint64
	// StallCycle, when non-zero, suppresses completion events after that
	// cycle so the machine stops making progress and the deadlock
	// watchdog trips.
	StallCycle uint64
	// EOFAfter, when non-zero, truncates the instruction stream after
	// that many instructions — a premature end-of-trace.
	EOFAfter uint64
	// CorruptEvery, when non-zero, corrupts every Nth trace record
	// (fields and bit patterns chosen from Seed).
	CorruptEvery uint64
	// JournalKillWrite, when non-zero, simulates a `kill -9` landing in
	// the middle of the Nth campaign-journal append: only a seeded
	// prefix of the record's bytes reaches the file before the journal
	// declares the process dead. Spec key: kill-mid-write.
	JournalKillWrite uint64
	// JournalTornTail, when non-zero, simulates a crash immediately
	// after the Nth campaign-journal append by tearing a seeded number
	// of bytes off the freshly written record. Spec key:
	// journal-torn-tail.
	JournalTornTail uint64
	// WorkerKill, when non-zero, makes the shard worker holding the Nth
	// coordinator assignment (1-based) exit abruptly mid-cell — the
	// stand-in for a crashed or OOM-killed worker process. Spec key:
	// worker-kill.
	WorkerKill uint64
	// WorkerStall, when non-zero, makes the worker holding the Nth
	// assignment stop heartbeating and wedge mid-cell, so the
	// coordinator's lease watchdog must expire and reclaim it. Spec key:
	// worker-stall.
	WorkerStall uint64
	// AcceptStall, when non-zero, makes the service daemon's admission
	// path stall for a deterministic interval while handling the Nth
	// accepted job (1-based) — the stand-in for a slow fsync or a
	// wedged downstream during accept, used to prove overload turns
	// into 429s rather than queue growth. Spec key: accept-stall.
	AcceptStall uint64
	// ClientDisconnect, when non-zero, severs the Nth results stream
	// (1-based) after its first record — the stand-in for a client
	// that vanishes mid-download. The daemon must drop the connection
	// without disturbing the job. Spec key: client-disconnect.
	ClientDisconnect uint64
	// DaemonKill, when non-zero, makes the service daemon exit with
	// code 137 immediately after journaling the Nth accepted job — the
	// deterministic in-process variant of the chaos drill's real
	// `kill -9`. Spec key: daemon-kill.
	DaemonKill uint64
}

// Active reports whether the plan injects simulation-level faults. The
// journal-level faults (JournalKillWrite, JournalTornTail), the
// shard-level faults (WorkerKill, WorkerStall) and the service-level
// faults (AcceptStall, ClientDisconnect, DaemonKill) are deliberately
// excluded: they target the campaign journal, the worker fleet and svfd,
// not the machine model, so such plans must not push runs onto the
// cache-bypassing injection path — the whole point of the worker-kill
// chaos drill is that the reclaimed cells flow through the cache and
// journal as usual.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.PanicCycle != 0 || p.StallCycle != 0 || p.EOFAfter != 0 || p.CorruptEvery != 0
}

// JournalActive reports whether the plan injects campaign-journal faults.
func (p *Plan) JournalActive() bool {
	if p == nil {
		return false
	}
	return p.JournalKillWrite != 0 || p.JournalTornTail != 0
}

// JournalKillAt reports whether the plan's simulated kill -9 lands inside
// the seq'th journal append (1-based).
func (p *Plan) JournalKillAt(seq uint64) bool {
	return p != nil && p.JournalKillWrite != 0 && p.JournalKillWrite == seq
}

// JournalTearAt reports whether the plan tears the tail off the journal
// right after the seq'th append (1-based).
func (p *Plan) JournalTearAt(seq uint64) bool {
	return p != nil && p.JournalTornTail != 0 && p.JournalTornTail == seq
}

// WorkerKillAt reports whether the worker holding the seq'th coordinator
// assignment (1-based) should die mid-cell.
func (p *Plan) WorkerKillAt(seq uint64) bool {
	return p != nil && p.WorkerKill != 0 && p.WorkerKill == seq
}

// WorkerStallAt reports whether the worker holding the seq'th assignment
// should wedge mid-cell until the lease watchdog reclaims it.
func (p *Plan) WorkerStallAt(seq uint64) bool {
	return p != nil && p.WorkerStall != 0 && p.WorkerStall == seq
}

// AcceptStallAt reports whether the admission path should stall while
// handling the seq'th accepted job (1-based).
func (p *Plan) AcceptStallAt(seq uint64) bool {
	return p != nil && p.AcceptStall != 0 && p.AcceptStall == seq
}

// ClientDisconnectAt reports whether the seq'th results stream (1-based)
// should be severed after its first record.
func (p *Plan) ClientDisconnectAt(seq uint64) bool {
	return p != nil && p.ClientDisconnect != 0 && p.ClientDisconnect == seq
}

// DaemonKillAt reports whether the daemon should die right after
// journaling the seq'th accepted job (1-based).
func (p *Plan) DaemonKillAt(seq uint64) bool {
	return p != nil && p.DaemonKill != 0 && p.DaemonKill == seq
}

// Matches reports whether the plan applies to the named workload.
func (p *Plan) Matches(bench string) bool {
	if p == nil {
		return false
	}
	return p.Bench == "" || strings.Contains(bench, p.Bench)
}

// String renders the plan in the same key=value form Parse accepts.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	add := func(k string, v uint64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	if p.Bench != "" {
		parts = append(parts, "bench="+p.Bench)
	}
	add("panic", p.PanicCycle)
	add("stall", p.StallCycle)
	add("eof", p.EOFAfter)
	add("corrupt", p.CorruptEvery)
	add("kill-mid-write", p.JournalKillWrite)
	add("journal-torn-tail", p.JournalTornTail)
	add("worker-kill", p.WorkerKill)
	add("worker-stall", p.WorkerStall)
	add("accept-stall", p.AcceptStall)
	add("client-disconnect", p.ClientDisconnect)
	add("daemon-kill", p.DaemonKill)
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Parse builds a plan from a comma-separated key=value spec, e.g.
// "bench=176.gcc,panic=50000,seed=7". Keys: bench, panic (cycle), stall
// (cycle), eof (instructions), corrupt (record period), kill-mid-write
// (journal append ordinal), journal-torn-tail (journal append ordinal),
// worker-kill (shard assignment ordinal), worker-stall (shard assignment
// ordinal), accept-stall (accepted-job ordinal), client-disconnect
// (results-stream ordinal), daemon-kill (accepted-job ordinal), seed.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q is not key=value", kv)
		}
		if k == "bench" {
			p.Bench = v
			continue
		}
		n, err := strconv.ParseUint(v, 10, 63)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s=%q: %v", k, v, err)
		}
		switch k {
		case "panic":
			p.PanicCycle = n
		case "stall":
			p.StallCycle = n
		case "eof":
			p.EOFAfter = n
		case "corrupt":
			p.CorruptEvery = n
		case "kill-mid-write":
			p.JournalKillWrite = n
		case "journal-torn-tail":
			p.JournalTornTail = n
		case "worker-kill":
			p.WorkerKill = n
		case "worker-stall":
			p.WorkerStall = n
		case "accept-stall":
			p.AcceptStall = n
		case "client-disconnect":
			p.ClientDisconnect = n
		case "daemon-kill":
			p.DaemonKill = n
		case "seed":
			p.Seed = int64(n)
		default:
			return nil, fmt.Errorf("faultinject: unknown key %q (want bench, panic, stall, eof, corrupt, kill-mid-write, journal-torn-tail, worker-kill, worker-stall, accept-stall, client-disconnect, daemon-kill, seed)", k)
		}
	}
	return p, nil
}

// WrapStream applies the plan's stream-level faults (EOFAfter,
// CorruptEvery) to s. Plans without stream faults return s unchanged.
func (p *Plan) WrapStream(s trace.Stream) trace.Stream {
	if p == nil || (p.EOFAfter == 0 && p.CorruptEvery == 0) {
		return s
	}
	return &faultStream{s: s, plan: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// faultStream corrupts or truncates the wrapped stream per the plan.
type faultStream struct {
	s    trace.Stream
	plan *Plan
	rng  *rand.Rand
	n    uint64
}

// Next implements trace.Stream.
func (f *faultStream) Next(in *isa.Inst) bool {
	if f.plan.EOFAfter != 0 && f.n >= f.plan.EOFAfter {
		return false
	}
	if !f.s.Next(in) {
		return false
	}
	f.n++
	if f.plan.CorruptEvery != 0 && f.n%f.plan.CorruptEvery == 0 {
		Corrupt(f.rng, in)
	}
	return true
}

// Corrupt damages one record in a way real trace corruption would: a
// flipped address bit, a perturbed immediate, an out-of-range register, or
// a scrambled kind byte. The choice and the damage both come from rng, so a
// fixed-seed generator replays the same corruption sequence.
func Corrupt(rng *rand.Rand, in *isa.Inst) {
	switch rng.Intn(4) {
	case 0:
		in.Addr ^= 1 << uint(rng.Intn(48))
	case 1:
		in.Imm += int32(rng.Intn(1<<12)) - 1<<11
	case 2:
		in.Src1 = uint8(isa.NumRegs + rng.Intn(200))
	case 3:
		in.Kind = isa.Kind(200 + rng.Intn(50))
	}
}
