// Command svfbench is the repository's end-to-end benchmark. It runs one
// named workload, checks that the outputs are correct, and prints every
// end-to-end metric — or, with -trace 1, every per-layer metric — as the
// last line of standard output:
//
//	{"correct":true,"attempted":228,"failed":0,"metrics":{"setup_s":{"value":1.93,"unit":"s"},...}}
//
// run.sh builds this command and svfd from the checkout and then runs it,
// from the repository root:
//
//	bash cmd/svfbench/run.sh -workload svfd-fresh -seed 1 -seconds 15 -trace 0
//
// -runs N instead runs every workload N times (seeds 1..N), each in its own
// process, and prints the median and quartiles of every end-to-end metric,
// flagging any whose interquartile spread exceeds its BENCHMARK.json bound.
// README.md describes the workloads and the layer → metric → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runTimeout bounds one workload run, set-up and verification included.
const runTimeout = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of svfexp or svfd sees, printed by an
// untraced run for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"sim_minsts_per_s", "Minst/s"},
	{"cell_p50_ms", "ms"},
	{"cell_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, grouped by layer.
var perLayer = []metricDef{
	{"synth.build_s", "s"},
	{"tracecache.hit_ratio", "ratio"},
	{"tracecache.evictions", "count"},
	{"tracecache.used_mb", "MB"},
	{"sim.run_calls", "count"},
	{"sim.run_busy_s", "s"},
	{"sim.run_minsts_per_s", "Minst/s"},
	{"sim.traffic_calls", "count"},
	{"sim.traffic_busy_s", "s"},
	{"sim.traffic_minsts_per_s", "Minst/s"},
	{"sim.busy_frac", "ratio"},
	{"pipeline.cycles", "count"},
	{"pipeline.committed", "count"},
	{"pipeline.ns_per_cycle", "ns"},
	{"core.ns_per_access", "ns"},
	{"cache.ns_per_access", "ns"},
	{"runcache.requests", "count"},
	{"runcache.hit_ratio", "ratio"},
	{"runcache.retries", "count"},
	{"runcache.restored_hits", "count"},
	{"runcache.self_us_p50", "us"},
	{"runcache.key_us", "us"},
	{"journal.appends_per_fsync", "ratio"},
	{"journal.append_p50_us", "us"},
	{"journal.replay_s", "s"},
	{"shard.lease_wait_ms_p50", "ms"},
	{"shard.lease_ms_p50", "ms"},
	{"shard.overhead_ms_p50", "ms"},
	{"shard.reenqueued", "count"},
	{"shard.worker_deaths", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.admit_ms_p50", "ms"},
	{"service.queue_ms_p50", "ms"},
	{"service.unattributed_frac", "ratio"},
	{"service.parse_us", "us"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_cell", "MB"},
	{"trace.cells_checked", "count"},
	{"trace.cell_sum_bad", "count"},
	{"trace_overhead_frac", "ratio"},
}

// campaignOnly are per-layer metrics observable only inside a campaign
// process; svfd workloads report them as 0 (see README.md).
var campaignOnly = []string{
	"tracecache.hit_ratio", "tracecache.evictions", "tracecache.used_mb",
	"sim.traffic_calls", "sim.traffic_busy_s", "sim.traffic_minsts_per_s",
	"go.gc_cpu_frac", "go.alloc_mb_per_cell",
}

// svfdOnly are per-layer metrics read from svfd's spans, events and
// /metrics; campaign workloads, which run no daemon, report them as 0.
var svfdOnly = []string{
	"runcache.restored_hits", "runcache.self_us_p50", "journal.appends_per_fsync",
	"shard.lease_wait_ms_p50", "shard.lease_ms_p50", "shard.overhead_ms_p50",
	"shard.reenqueued", "shard.worker_deaths",
	"service.submit_ms_p50", "service.admit_ms_p50", "service.queue_ms_p50",
	"service.unattributed_frac", "trace.cells_checked", "trace.cell_sum_bad",
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	short   bool   // toy sizes, for the smoke test
	svfd    string // svfd binary
	work    string // this run's scratch directory, removed at exit
}

// setupRounds is how many times a run sets an svfd workload up, of which
// setup_s is the median: full rounds, or 1 at toy size.
func (o *options) setupRounds(full int) int {
	if o.short {
		return 1
	}
	return full
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// checksOK is false when a correctness gate other than per-cell
	// failures (result hashes, the scorecard grade) did not pass.
	checksOK bool
	metrics  map[string]float64
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, o *options, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"campaign-timing", func(ctx context.Context, o *options, traced bool) (*outcome, error) {
		return runCampaign(ctx, o, "campaign-timing", traced)
	}},
	{"campaign-traffic", func(ctx context.Context, o *options, traced bool) (*outcome, error) {
		return runCampaign(ctx, o, "campaign-traffic", traced)
	}},
	{"svfd-fresh", runSvfdFresh},
	{"svfd-hits", runSvfdHits},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	entry := time.Now()
	name := flag.String("workload", "", "workload to run: campaign-timing, campaign-traffic, svfd-fresh or svfd-hits")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	short := flag.Bool("short", false, "toy sizes (smoke test)")
	svfdBin := flag.String("svfd", ".bench_build/bin/svfd", "svfd binary built from this checkout")
	workRoot := flag.String("work", ".bench_build/tmp", "directory for per-run scratch files")
	runs := flag.Int("runs", 0, "run every workload N times and print median and quartiles per metric")
	child := flag.String("child", "", "internal: run one campaign pass of this workload and print its report")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "svfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "svfbench: -seconds must be at least 1")
		return 2
	}
	o := &options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, short: *short,
		svfd: *svfdBin, work: *workRoot,
	}

	if *child != "" {
		return campaignChildMain(*child, o, *trace == 1, entry)
	}
	if *runs > 0 {
		return runsMain(*runs, o)
	}

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "svfbench: unknown -workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*workRoot, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o.work = work
	if abs, err := filepath.Abs(o.svfd); err == nil {
		o.svfd = abs
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	// Whatever path the run leaves by — success, error, timeout or signal —
	// no daemon or worker outlives it.
	defer killDaemons()

	traced := *trace == 1
	out, err := w.run(ctx, o, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{
		Correct:   out.checksOK && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "svfbench: %s: metric %s was not measured\n", w.name, d.name)
			return 1
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "svfbench: %s: correctness check failed (%d of %d cells failed)\n", w.name, out.failed, out.attempted)
		return 1
	}
	return 0
}

// zeroMetrics sets names to 0 in m: the layer is not exercised by this
// kind of workload.
func zeroMetrics(m map[string]float64, names []string) {
	for _, n := range names {
		m[n] = 0
	}
}
