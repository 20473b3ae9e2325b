package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at toy size (-short), untraced
// and traced, through the real campaign child processes and svfd daemons,
// and checks that each run passes its correctness gate and prints exactly
// the metrics BENCHMARK.json declares, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := map[string]map[string]string{"0": declared(bench.EndToEnd), "1": declared(bench.PerLayer)}

	bin := t.TempDir()
	for _, b := range [][]string{
		{"build", "-o", filepath.Join(bin, "svfbench"), "."},
		{"build", "-o", filepath.Join(bin, "svfd"), "svf/cmd/svfd"},
	} {
		if out, err := exec.Command("go", b...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", b, err, out)
		}
	}

	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, svfbench implements %d", len(names), len(workloads))
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "svfbench"), "-short", "-workload", name, "-seed", "3",
					"-seconds", "2", "-trace", trace, "-svfd", filepath.Join(bin, "svfd"), "-work", t.TempDir())
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				if err != nil {
					t.Fatalf("svfbench: %v\n%s", err, stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", rep.Correct, rep.Failed, rep.Attempted, stderr.String())
				}
				for m, unit := range want[trace] {
					got, ok := rep.Metrics[m]
					if !ok {
						t.Errorf("metric %s not emitted", m)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m, got.Unit, unit)
					}
				}
				for m := range rep.Metrics {
					if _, ok := want[trace][m]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", m)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the repeatability check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
