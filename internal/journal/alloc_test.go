//go:build !race

// The race detector adds allocations of its own, so these counts hold
// only without it; CI runs them in its alloc step.

package journal

import (
	"testing"
)

// TestAppendAllocs guards the journal's append path, which every
// completed cell pays: the allocations per Append may not grow.
func TestAppendAllocs(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := Record{Kind: "run", Key: "run|0123456789abcdef|{Policy:1 StackPorts:2 MaxInsts:20000}", Data: make([]byte, 1500)}
	const max = 2
	if got := testing.AllocsPerRun(20, func() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); got > max {
		t.Errorf("Append allocates %v times per record, want at most %v", got, max)
	}
}
