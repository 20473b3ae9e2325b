package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricStats summarises one metric of one workload over a set of runs.
type metricStats struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 - Q1) / Median, the share of the median the runs
	// scatter over.
	Spread float64 `json:"spread"`
}

// runSet is one -runs invocation's record, the form testdata/seed-sets.json
// keeps.
type runSet struct {
	CPU        string                            `json:"cpu"`
	NProc      int                               `json:"nproc"`
	RunSeconds int                               `json:"run_seconds"`
	Runs       int                               `json:"runs"`
	Workloads  map[string]map[string]metricStats `json:"workloads"`
}

// runsMain runs every workload n times with seeds 1..n, each run its own
// process of this binary, interleaving workloads so slow drift of the
// machine spreads over all of them. It prints a table to standard error,
// flagging each metric whose spread exceeds its BENCHMARK.json bound or a
// third of it, and the runSet as JSON to standard output. It fails only if
// a run failed: a spread describes the machine as much as the code.
func runsMain(n int, o *options) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: -runs: %v (run from the repository root)\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %v\n", err)
		return 1
	}
	secs := int(o.seconds / time.Second)
	values := map[string]map[string][]float64{}
	ok := true
	for seed := 1; seed <= n; seed++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(secs), "-svfd", o.svfd, "-work", o.work}
			if o.short {
				args = append(args, "-short")
			}
			var stderr bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stderr = &stderr
			t0 := time.Now()
			stdout, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var rep report
			if jerr := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || jerr != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "svfbench: %s seed %d failed: %v\n%s", w.name, seed, err, stderr.String())
				ok = false
				continue
			}
			fmt.Fprintf(os.Stderr, "%-17s seed %-3d %5.1fs\n", w.name, seed, time.Since(t0).Seconds())
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
		}
	}

	set := runSet{CPU: cpuModel(), NProc: runtime.NumCPU(), RunSeconds: secs, Runs: n, Workloads: map[string]map[string]metricStats{}}
	fmt.Fprintf(os.Stderr, "\n%-17s %-17s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		set.Workloads[w.name] = map[string]metricStats{}
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			st := metricStats{Values: vs, Median: median(vs)}
			st.Q1, st.Q3 = quartiles(vs)
			st.Spread = ratio(st.Q3-st.Q1, st.Median)
			set.Workloads[w.name][d.name] = st
			flag := ""
			if b := bounds[d.name]; st.Spread > b {
				flag = "  over bound"
			} else if st.Spread > b/3 {
				flag = "  over bound/3"
			}
			fmt.Fprintf(os.Stderr, "%-17s %-17s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", w.name, d.name, st.Median, st.Q1, st.Q3, st.Spread, bounds[d.name], flag)
		}
	}
	data, err := json.Marshal(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !ok {
		return 1
	}
	return 0
}

// readBounds returns each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
