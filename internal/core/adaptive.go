package core

import "svf/internal/isa"

// This file implements §3.3's escape hatch: "If shown to be necessary
// because of localized poor SVF performance, the SVF can be dynamically
// disabled for a period of time."
//
// The mechanism is a simple epoch monitor: every MonitorWindow accesses it
// computes the fraction that caused L1 traffic (demand fills, RMWs, window
// spills). If that fraction exceeds DisableThreshold — the window is
// thrashing, e.g. a workload whose live range keeps sliding past the
// structure — the SVF flushes itself and turns off for DisablePeriod
// accesses' worth of stack references, which then flow to the data cache
// unimpeded. It then re-enables and monitoring restarts.

// Adaptive-disable defaults.
const (
	// DefaultMonitorWindow is the epoch length in SVF accesses.
	DefaultMonitorWindow = 4096
	// DefaultDisableThreshold is the traffic-per-access fraction above
	// which the SVF disables itself.
	DefaultDisableThreshold = 0.35
	// DefaultDisablePeriod is how many would-be accesses the SVF stays
	// off once disabled.
	DefaultDisablePeriod = 16384
)

// adaptiveState holds the monitor's counters.
type adaptiveState struct {
	enabled bool // mechanism configured on
	off     bool // currently disabled

	accesses   uint64 // accesses this epoch
	traffic    uint64 // fills+spills+RMWs this epoch
	offCounter uint64 // remaining disabled "accesses"

	window    uint64
	threshold float64
	period    uint64
}

// EnableAdaptiveDisable turns the §3.3 monitor on with the given
// parameters (zero values select the defaults). It must be called before
// simulation begins.
func (s *SVF) EnableAdaptiveDisable(window uint64, threshold float64, period uint64) {
	if window == 0 {
		window = DefaultMonitorWindow
	}
	if threshold == 0 {
		threshold = DefaultDisableThreshold
	}
	if period == 0 {
		period = DefaultDisablePeriod
	}
	s.adapt = adaptiveState{enabled: true, window: window, threshold: threshold, period: period}
}

// adaptNote feeds the monitor after each access; traffic is the number of
// L1 transfers the access caused.
func (s *SVF) adaptNote(traffic uint64) {
	if !s.adapt.enabled || s.adapt.off {
		return
	}
	a := &s.adapt
	a.accesses++
	a.traffic += traffic
	if a.accesses < a.window {
		return
	}
	frac := float64(a.traffic) / float64(a.accesses)
	a.accesses = 0
	a.traffic = 0
	if frac > a.threshold {
		s.disableNow()
	}
}

// disableNow flushes the structure (dirty live words must reach memory
// before references start bypassing the SVF) and turns it off.
func (s *SVF) disableNow() {
	s.stats.DisablePeriods++
	s.adapt.off = true
	s.adapt.offCounter = s.adapt.period
	if s.spKnown && s.entries > 0 {
		winBytes := uint64(s.entries) * isa.WordSize
		for a := s.sp; a < s.sp+winBytes; a += isa.WordSize {
			i := s.index(a)
			if s.valid[i] && s.dirty[i] {
				s.stats.Spills++
				s.stats.QuadWordsOut++
				s.l1.Access(a, true)
			}
		}
	}
	s.invalidateAll()
}

// adaptTick counts down the disabled period on each would-be SVF access
// (called from Contains while off).
func (s *SVF) adaptTick() {
	if s.adapt.offCounter > 0 {
		s.adapt.offCounter--
		if s.adapt.offCounter == 0 {
			// Re-enable: the structure is empty (flushed at disable
			// time), so it warms up from allocation kills and demand
			// fills like after a context switch.
			s.adapt.off = false
		}
	}
}
