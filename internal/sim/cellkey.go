package sim

import (
	"fmt"
	"hash/fnv"
	"io"

	"svf/internal/pipeline"
	"svf/internal/synth"
)

// runCellKey renders a run cell's key from its workload identity (the
// profile's content fingerprint) and canonical options: the one identity
// the cache, its store, the journal and every fault and event fingerprint
// use. The full options rendering (not a hash) is used so distinct cells
// can never collide; a format change across versions merely makes old
// records unmatchable, which costs a re-execution, never a wrong result.
// TestCellKeyGolden pins the bytes.
func runCellKey(prof string, canon Options) string {
	return "run|" + prof + "|" + fmt.Sprintf("%+v", canon)
}

// trafficCellKey renders a traffic cell's key.
func trafficCellKey(prof string, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) string {
	return fmt.Sprintf("traffic|%s|%d|%d|%d|%d", prof, policy, sizeBytes, maxInsts, ctxPeriod)
}

// RunCellKey is a run cell's stable identity: the exact string the cache
// keys, journals and fingerprints the cell by. Callers above the cache (the
// service daemon's job fingerprints, the shard pool's poison tracking)
// share cell identity with the journal by using this instead of inventing
// a parallel scheme.
func RunCellKey(prof *synth.Profile, opt Options) string {
	return runCellKey(prof.Fingerprint(), Canonical(opt))
}

// TrafficCellKey is a traffic cell's stable identity.
func TrafficCellKey(prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) string {
	return trafficCellKey(prof.Fingerprint(), policy, sizeBytes, maxInsts, ctxPeriod)
}

// shortKey is the 16-hex fnv-64a short form of a cell key: the
// fingerprint faults and events carry.
func shortKey(key string) string {
	h := fnv.New64a()
	io.WriteString(h, key)
	return fmt.Sprintf("%016x", h.Sum64())
}
