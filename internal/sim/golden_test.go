package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"svf/internal/cache"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// updateGolden rewrites the recorded fixtures from the current model.
// Run `go test ./internal/sim -run TestGoldenDeterminism -update-golden`
// only when a change is *meant* to alter timing, and
// `go test ./internal/sim -run TestTrafficGolden -update-golden` only when
// it is meant to alter functional traffic.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json and testdata/traffic_golden.json from the current model")

const goldenInsts = 50_000

// goldenRecord is everything one run must reproduce bit-identically:
// the pipeline's cycle/IPC counters and every traffic counter downstream.
type goldenRecord struct {
	Pipe          pipeline.Stats
	IL1, DL1, UL2 cache.Stats
	MemAccesses   uint64

	SVFQWIn, SVFQWOut uint64
	SCQWIn, SCQWOut   uint64
	RSEQWIn, RSEQWOut uint64
}

// goldenConfigs cover every scheduler path: all four routing policies, the
// perfect and gshare front ends, AGEN vs morphed issue, context switches,
// and three machine widths.
func goldenConfigs() []struct {
	label string
	opt   Options
} {
	return []struct {
		label string
		opt   Options
	}{
		{"base16", Options{MaxInsts: goldenInsts}},
		{"svf16x2", Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: goldenInsts}},
		{"svf16inf", Options{Policy: pipeline.PolicySVF, SVFInfinite: true, MaxInsts: goldenInsts}},
		{"sc4gshare", Options{Machine: pipeline.FourWide(), Policy: pipeline.PolicyStackCache,
			StackPorts: 2, Predictor: PredGshare, MaxInsts: goldenInsts, CtxSwitchPeriod: 20_000}},
		{"rse8", Options{Machine: pipeline.EightWide(), Policy: pipeline.PolicyRSE, MaxInsts: goldenInsts}},
	}
}

// familyConfigs cover the stack-stress families: the SVF and the RSE with
// rapid context switching layered on top of the families' own $sp churn
// (flushes landing amid squashes and window slides), plus the gshare stack
// cache.
func familyConfigs() []struct {
	label string
	opt   Options
} {
	return []struct {
		label string
		opt   Options
	}{
		{"svf16x2ctx", Options{Policy: pipeline.PolicySVF, StackPorts: 2,
			MaxInsts: goldenInsts, CtxSwitchPeriod: 10_000}},
		{"sc4gshare", Options{Machine: pipeline.FourWide(), Policy: pipeline.PolicyStackCache,
			StackPorts: 2, Predictor: PredGshare, MaxInsts: goldenInsts, CtxSwitchPeriod: 20_000}},
		{"rse8ctx", Options{Machine: pipeline.EightWide(), Policy: pipeline.PolicyRSE,
			MaxInsts: goldenInsts, CtxSwitchPeriod: 10_000}},
	}
}

func goldenKey(bench, label string) string { return bench + "/" + label }

// TestGoldenDeterminism runs every Table 1 profile at 50k instructions
// under five machine configurations and compares all counters against the
// fixture recorded before the event-driven scheduler rewrite. Any timing
// or traffic deviation — a single cycle, one quadword — fails the test:
// the scheduler is an optimisation, not a model change.
func TestGoldenDeterminism(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats.json")
	got := map[string]goldenRecord{}
	sets := []struct {
		profs []*synth.Profile
		cfgs  []struct {
			label string
			opt   Options
		}
	}{
		{synth.Benchmarks(), goldenConfigs()},
		{synth.Families(), familyConfigs()},
	}
	for _, set := range sets {
		for _, prof := range set.profs {
			for _, c := range set.cfgs {
				r, err := Run(prof, c.opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", prof.ID(), c.label, err)
				}
				got[goldenKey(prof.ID(), c.label)] = goldenRecord{
					Pipe: r.Pipe, IL1: r.IL1, DL1: r.DL1, UL2: r.UL2,
					MemAccesses: r.MemAccesses,
					SVFQWIn:     r.SVFQWIn, SVFQWOut: r.SVFQWOut,
					SCQWIn: r.SCQWIn, SCQWOut: r.SCQWOut,
					RSEQWIn: r.RSEQWIn, RSEQWOut: r.RSEQWOut,
				}
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden runs to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (use -update-golden to record): %v", err)
	}
	want := map[string]goldenRecord{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d runs, produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run set", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: counters diverged from fixture\n%s", key, diffRecords(w, g))
		}
	}
}

// diffRecords renders only the fields that differ, so a failure reads as
// "Cycles: 81234 -> 81240" rather than two opaque structs.
func diffRecords(want, got goldenRecord) string {
	var out string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	var walk func(prefix string, w, g reflect.Value)
	walk = func(prefix string, w, g reflect.Value) {
		ty := w.Type()
		for i := 0; i < ty.NumField(); i++ {
			name := prefix + ty.Field(i).Name
			wf, gf := w.Field(i), g.Field(i)
			if wf.Kind() == reflect.Struct {
				walk(name+".", wf, gf)
				continue
			}
			if !reflect.DeepEqual(wf.Interface(), gf.Interface()) {
				out += fmt.Sprintf("\t%s: %v -> %v\n", name, wf.Interface(), gf.Interface())
			}
		}
	}
	walk("", wv, gv)
	return out
}
