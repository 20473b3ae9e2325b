// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 and §5). Each experiment function runs the required
// simulations and returns both the raw per-benchmark numbers (for tests and
// programmatic use) and a formatted table matching the paper's
// presentation.
//
// Suites are supervised: each cell's simulation runs under the suite
// context (Config.Ctx) with an optional per-run deadline
// (Config.RunTimeout), and a failed cell either aborts the suite
// (FaultFail) or is recorded in Config.Faults and rendered as a gap
// (FaultContinue) while the remaining cells complete. See DESIGN.md,
// "Fault domains and supervision".
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"svf/internal/faultinject"
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/stats"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// FaultPolicy decides what a suite does when one cell's simulation fails.
type FaultPolicy int

const (
	// FaultFail aborts the suite on the first failed cell (the library
	// default): the error propagates and sibling runs are cancelled.
	FaultFail FaultPolicy = iota
	// FaultContinue records the failure (Config.Faults) and renders the
	// cell as an annotated gap, letting the rest of the suite complete.
	FaultContinue
)

// String names the policy (the svfexp -on-fault flag values).
func (p FaultPolicy) String() string {
	if p == FaultContinue {
		return "continue"
	}
	return "fail"
}

// ParseFaultPolicy parses "fail" or "continue".
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	switch s {
	case "fail":
		return FaultFail, nil
	case "continue":
		return FaultContinue, nil
	}
	return FaultFail, fmt.Errorf("experiments: unknown fault policy %q (want fail or continue)", s)
}

// Config controls experiment execution.
type Config struct {
	// MaxInsts is the per-run instruction budget for timing experiments
	// (default 400 000; the paper runs ≥1B — scale expectations, not
	// shapes).
	MaxInsts int
	// TrafficInsts is the budget for functional traffic experiments
	// (Tables 3 and 4; default 2 000 000).
	TrafficInsts int
	// Benchmarks defaults to the twelve Table 1 profiles; nil: Table 3
	// uses all 17 benchmark·input pairs.
	Benchmarks []*synth.Profile
	// Parallel is the number of concurrent simulations (default
	// GOMAXPROCS).
	Parallel int
	// Cache memoizes and dedups simulation runs. Every experiment
	// constructor routes its runs through it, so identical (profile,
	// options) pairs — within one figure, across figures, or between a
	// figure and the scorecard — simulate exactly once. Nil selects the
	// process-wide shared cache (sim.SharedCache()); use sim.NewRunCache()
	// for an isolated one (benchmarks do, to keep timings honest). Every
	// cache retries a faulted cell after a backoff and latches it once its
	// retry budget is spent; a latched cell degrades like any other cell
	// fault. A cache built with sim.NewRunCacheWithJournal also consults
	// cells restored from a previous process: completed cells are served
	// from disk, and faulted ones carry their attempts over.
	Cache *sim.RunCache
	// Ctx cancels the whole suite: when it is done, in-flight simulations
	// stop at their next poll point and the suite returns the context's
	// error. Nil means context.Background() (never cancelled).
	Ctx context.Context
	// RunTimeout, when positive, bounds each individual simulation; a run
	// that exceeds it fails with context.DeadlineExceeded and is treated
	// like any other cell fault (recorded, degradable).
	RunTimeout time.Duration
	// OnFault selects the failure policy (default FaultFail).
	OnFault FaultPolicy
	// Faults, when non-nil, collects every cell failure (except suite
	// cancellation) regardless of policy, so callers can report what
	// degraded even when the suite "succeeded".
	Faults *FaultLog
	// Inject, when non-nil, applies a deterministic fault plan
	// (internal/faultinject) to every timing run whose benchmark matches
	// the plan. Chaos-testing hook; leave nil for real measurements.
	Inject *faultinject.Plan
	// Progress, when non-nil, is fed the suite's cell counts (total as
	// each experiment lays out its grid, done as cells finish) for the
	// telemetry layer's /progress endpoint. Nil disables the accounting.
	Progress *telemetry.Progress
}

func (c *Config) fillDefaults() {
	if c.MaxInsts == 0 {
		c.MaxInsts = 400_000
	}
	if c.TrafficInsts == 0 {
		c.TrafficInsts = 2_000_000
	}
	if c.Benchmarks == nil {
		c.Benchmarks = synth.Benchmarks()
	}
	if c.Parallel == 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Cache == nil {
		c.Cache = sim.SharedCache()
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
}

// nan marks a cell whose simulation failed; renderers draw it as a gap.
var nan = math.NaN()

// isCancellation reports whether err is the suite being told to stop, as
// opposed to a cell breaking on its own.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled)
}

// forEach runs f(ctx, i) for i in [0, n) with bounded parallelism under a
// context derived from the suite's. It fails fast: the first task error
// cancels the derived context — tasks not yet started are skipped, and
// in-flight simulations stop at their next poll point — and is returned.
// When both a real fault and cancellation fallout race, the real fault
// wins.
func (c Config) forEach(n int, f func(ctx context.Context, i int) error) error {
	parallel := c.Parallel
	if parallel < 1 {
		parallel = 1
	}
	parent := c.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	sem := make(chan struct{}, parallel)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			if err := f(ctx, i); err != nil {
				mu.Lock()
				if firstErr == nil || (isCancellation(firstErr) && !isCancellation(err)) {
					firstErr = fmt.Errorf("experiments: task %d: %w", i, err)
				}
				mu.Unlock()
				cancel()
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr == nil && parent.Err() != nil {
		// The suite was cancelled before (or while) the tasks ran and no
		// task observed it: propagate so an already-cancelled suite never
		// reports success over empty cells.
		return parent.Err()
	}
	return firstErr
}

// runGrid is the one way an experiment executes its cells: a row per
// profile, a column per configuration, cells[row][col] back. Every cell
// runs under the suite's supervision — the per-run deadline, fault
// recording, fail-fast under FaultFail and degrade under FaultContinue —
// and a failed cell comes back nil. Progress counts cells.
//
// Each cell is one task, so a grid keeps as many slots busy as it has
// cells; a free slot runs the next cell of the row nextRow picks.
func runGrid[C, V any](c Config, profs []*synth.Profile, cols []C, cell func(context.Context, *synth.Profile, C) (*V, error)) ([][]*V, error) {
	cells := make([][]*V, len(profs))
	for r := range cells {
		cells[r] = make([]*V, len(cols))
	}
	c.Progress.AddTotal(len(profs) * len(cols))
	var mu sync.Mutex
	next, warm := make([]int, len(profs)), make([]bool, len(profs))
	err := c.forEach(len(profs)*len(cols), func(ctx context.Context, _ int) error {
		defer c.Progress.Done(1)
		mu.Lock()
		r := nextRow(next, warm, len(cols))
		k := next[r]
		next[r]++
		mu.Unlock()
		if c.RunTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.RunTimeout)
			defer cancel()
		}
		v, err := cell(ctx, profs[r], cols[k])
		mu.Lock()
		warm[r] = true
		mu.Unlock()
		if err != nil {
			return c.fault(err)
		}
		cells[r][k] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// nextRow picks the row whose next cell a free slot runs; next holds each
// row's next column. A row's first cell records the profile's trace and
// the others replay it, and a cell started while the recording is under
// way waits for it, holding its slot. So nextRow prefers a warm row (one
// with a cell done), then a row not yet begun, and only then a row still
// on its first cell, rather than leave the slot idle. With fewer slots
// than rows a grid thus works through about a row at a time, and no slot
// waits on a recording.
func nextRow(next []int, warm []bool, cols int) int {
	best, bestRank := -1, 3
	for r, k := range next {
		rank := 2 // its first cell is still running
		switch {
		case k == cols:
			continue
		case warm[r]:
			rank = 0
		case k == 0:
			rank = 1
		}
		if rank < bestRank {
			best, bestRank = r, rank
		}
	}
	return best
}

// timingGrid runs every profile under every machine configuration at the
// suite's timing budget, with the suite's fault plan attached.
func (c Config) timingGrid(profs []*synth.Profile, opts ...sim.Options) ([][]*sim.Result, error) {
	return runGrid(c, profs, opts, func(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
		opt.MaxInsts, opt.FaultPlan = c.MaxInsts, c.Inject
		return c.Cache.Run(ctx, prof, opt)
	})
}

// trafficCol is one column of a traffic grid: a stack structure, its
// capacity and the context-switch period (0: none).
type trafficCol struct {
	policy    pipeline.StackPolicy
	sizeBytes int
	ctxPeriod uint64
}

// trafficCell is one traffic cell's outcome.
type trafficCell struct{ in, out, ctxBytes uint64 }

// qw is the cell's steady-state traffic in quadwords: fills plus
// writebacks.
func (t *trafficCell) qw() uint64 { return t.in + t.out }

// trafficGrid runs every profile's functional traffic loop under every
// column at the suite's traffic budget.
func (c Config) trafficGrid(profs []*synth.Profile, cols ...trafficCol) ([][]*trafficCell, error) {
	return runGrid(c, profs, cols, func(ctx context.Context, prof *synth.Profile, col trafficCol) (*trafficCell, error) {
		in, out, ctxBytes, err := c.Cache.Traffic(ctx, prof, col.policy, col.sizeBytes, c.TrafficInsts, col.ctxPeriod)
		if err != nil {
			return nil, err
		}
		return &trafficCell{in, out, ctxBytes}, nil
	})
}

// charGrid runs each profile's characterisation pass at the suite's
// traffic budget: a grid of one column.
func (c Config) charGrid(profs []*synth.Profile) ([][]*synth.Characterization, error) {
	return runGrid(c, profs, []int{c.TrafficInsts}, c.Cache.Characterize)
}

// complete reports whether every cell of a grid row ran; an experiment
// that reports a row only whole renders an incomplete one as a gap.
func complete[V any](row []*V) bool {
	for _, v := range row {
		if v == nil {
			return false
		}
	}
	return true
}

// fault handles a failed cell. It logs the failure, per-run deadline
// expiries included, except suite cancellation (the user asked the work to
// stop) and cells the journal has latched as permanently failed: those
// were fed to the log once, as replayed faults, when the campaign was
// restored (FaultLog.AddReplayed), and a latched cell may be consulted by
// several experiments in one suite. It then applies the suite's policy:
// under FaultContinue it returns nil and the cell stays a gap; under
// FaultFail, and always for suite cancellation, it returns err.
func (c Config) fault(err error) error {
	cancelled := isCancellation(err)
	var latched *sim.LatchedError
	if c.Faults != nil && !cancelled && !errors.As(err, &latched) {
		c.Faults.Add(err)
	}
	if c.OnFault == FaultContinue && !cancelled {
		return nil
	}
	return err
}

// speedup is stats.Speedup over two timing cells: a failed (nil) cell on
// either side is a NaN gap instead of a zero that would skew means.
func speedup(base, cfg *sim.Result) float64 {
	if base == nil || cfg == nil {
		return nan
	}
	return stats.Speedup(base.Cycles(), cfg.Cycles())
}

// speedups returns, for every row of a timing grid, the speedup of each
// (base, configuration) column pair, and each pair's mean over the rows
// (stats.MeanValid: gaps are skipped).
func speedups(cells [][]*sim.Result, pairs ...[2]int) (rows [][]float64, means []float64) {
	rows = make([][]float64, len(cells))
	byPair := make([][]float64, len(pairs))
	for r, row := range cells {
		for p, bc := range pairs {
			sp := speedup(row[bc[0]], row[bc[1]])
			rows[r] = append(rows[r], sp)
			byPair[p] = append(byPair[p], sp)
		}
	}
	for _, col := range byPair {
		means = append(means, stats.MeanValid(col))
	}
	return rows, means
}
