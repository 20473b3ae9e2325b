package telemetry

// Probe is the pipeline-side instrumentation point. A nil *Probe is the
// disabled state: the pipeline hot loop pays exactly one nil pointer check
// per cycle and nothing else. A non-nil probe feeds cycle-sampled
// occupancy (RUU/LSQ/IFQ) and scheduler fast-forward spans into its
// registry's histograms and — when Trace is set — the per-instruction
// stage timeline the Perfetto exporter renders.
//
// A Probe belongs to exactly one run: its cached handles and the trace are
// not concurrency-safe. The Registry it mirrors into IS safe to share
// across concurrent runs (every registry operation is atomic), which is
// how a campaign aggregates per-run probes into one /metrics page.
type Probe struct {
	// Registry, when non-nil, receives the occupancy and fast-forward span
	// histograms. Safe to share between concurrent probes.
	Registry *Registry
	// SampleEvery is the occupancy sampling period in cycles; 0 selects
	// DefaultSampleEvery.
	SampleEvery uint64
	// Trace, when non-nil, captures per-instruction stage timestamps for
	// the Perfetto exporter. Expensive relative to the sampled histograms —
	// intended for single diagnostic runs, not whole sweeps.
	Trace *PipelineTrace

	// Cached registry handles, resolved lazily on first use.
	hRUU, hLSQ, hIFQ, hFF *Histogram
}

// DefaultSampleEvery is the occupancy sampling period when the probe does
// not set one: fine enough to see phase behaviour at 400k-instruction
// budgets, coarse enough to be invisible in the hot loop.
const DefaultSampleEvery = 1024

// NewProbe returns a probe mirroring into reg (which may be nil for a
// trace-only probe).
func NewProbe(reg *Registry) *Probe {
	return &Probe{Registry: reg}
}

// Interval returns the effective sampling period.
func (p *Probe) Interval() uint64 {
	if p.SampleEvery == 0 {
		return DefaultSampleEvery
	}
	return p.SampleEvery
}

// occupancyBounds bucket the occupancy histograms: fractions of even the
// 16-wide machine's 256-entry RUU land usefully across them.
var occupancyBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// Sample records one occupancy observation at the given cycle.
func (p *Probe) Sample(cycle uint64, ruu, lsq, ifq int) {
	if p.Registry != nil {
		if p.hRUU == nil {
			p.hRUU = p.Registry.Histogram("svf_pipeline_ruu_occupancy", occupancyBounds...)
			p.hLSQ = p.Registry.Histogram("svf_pipeline_lsq_occupancy", occupancyBounds...)
			p.hIFQ = p.Registry.Histogram("svf_pipeline_ifq_occupancy", occupancyBounds...)
		}
		p.hRUU.Observe(float64(ruu))
		p.hLSQ.Observe(float64(lsq))
		p.hIFQ.Observe(float64(ifq))
	}
	if p.Trace != nil {
		p.Trace.counterSample(cycle, ruu, lsq, ifq)
	}
}

// fastForwardBounds bucket the idle-jump span histogram (cycles skipped
// per jump).
var fastForwardBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// FastForward records one scheduler idle jump that skipped the given
// cycles, ending at cycle `to`.
func (p *Probe) FastForward(to, skipped uint64) {
	if p.Registry != nil {
		if p.hFF == nil {
			p.hFF = p.Registry.Histogram("svf_pipeline_fastforward_span_cycles", fastForwardBounds...)
		}
		p.hFF.Observe(float64(skipped))
	}
	if p.Trace != nil {
		p.Trace.span("fast-forward", to-skipped, to, laneScheduler)
	}
}
