package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"svf/internal/core"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// trafficGoldenInsts is the functional traffic loop's budget per cell.
const trafficGoldenInsts = 300_000

// trafficCell is one functional traffic measurement: quadwords in and out
// and the per-context-switch flush bytes (Tables 3 and 4).
type trafficCell struct{ In, Out, Ctx uint64 }

// TestTrafficGolden pins the functional traffic loop — the source of
// Tables 3 and 4 and of the family traffic table — for every benchmark
// input and every stress family: the SVF, the stack cache and the RSE at
// 2KB and 8KB, with and without context switches, plus the SVF's
// liveness-kill, status-granularity and adaptive-disable ablations. Any
// change to a single quadword fails the test. Regenerate with
// `go test ./internal/sim -run TestTrafficGolden -update-golden` only when
// a change is meant to alter traffic.
func TestTrafficGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("315 traffic cells")
	}
	path := filepath.Join("testdata", "traffic_golden.json")
	ctx := context.Background()
	profs := append(synth.BenchmarkInputs(), synth.Families()...)
	got := map[string]trafficCell{}
	for _, prof := range profs {
		for _, policy := range []pipeline.StackPolicy{pipeline.PolicySVF, pipeline.PolicyStackCache, pipeline.PolicyRSE} {
			for _, size := range []int{2 << 10, 8 << 10} {
				for _, period := range []uint64{0, 100_000} {
					in, out, cb, err := TrafficOnly(ctx, prof, policy, size, trafficGoldenInsts, period)
					if err != nil {
						t.Fatalf("%s/%s: %v", prof.ID(), policy, err)
					}
					got[fmt.Sprintf("%s/%s/%d/%d", prof.ID(), policy, size, period)] = trafficCell{in, out, cb}
				}
			}
		}
		for _, ab := range []struct {
			label string
			cfg   core.Config
		}{
			{"nokills", core.Config{SizeBytes: 2 << 10, DisableKills: true}},
			{"gran4", core.Config{SizeBytes: 2 << 10, StatusGranularityWords: 4}},
			{"adaptive", core.Config{SizeBytes: 2 << 10, AdaptiveDisable: true}},
		} {
			in, out, cb, err := TrafficOnlySVF(ctx, prof, ab.cfg, trafficGoldenInsts, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", prof.ID(), ab.label, err)
			}
			got[prof.ID()+"/svf-"+ab.label] = trafficCell{in, out, cb}
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d traffic cells to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read traffic fixture (use -update-golden to record): %v", err)
	}
	want := map[string]trafficCell{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d cells, produced %d", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing from current cell set", key)
		} else if g != w {
			t.Errorf("%s: traffic %+v, fixture %+v", key, g, w)
		}
	}
}
