// Package bpred implements the branch direction predictors used in the
// evaluation: a perfect predictor (the paper's default front end, §4) and a
// gshare predictor (Figure 5's realistic-front-end configuration), plus a
// bimodal predictor for completeness.
//
// The simulator is trace-driven on the committed path, so predictors only
// decide the *direction* of conditional branches; targets are taken from
// the trace (equivalent to a perfect BTB and return-address stack, which
// keeps the front-end interference the paper wants to exclude out of the
// measurements).
package bpred

import "fmt"

// Predictor predicts conditional branch directions and learns outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc,
	// given the actual outcome (which only the perfect predictor may
	// consult).
	Predict(pc uint64, actual bool) bool
	// Update trains the predictor with the branch's actual outcome.
	Update(pc uint64, actual bool)
}

// Perfect always predicts correctly.
type Perfect struct{}

// NewPerfect returns the perfect predictor.
func NewPerfect() *Perfect { return &Perfect{} }

// Predict implements Predictor.
func (*Perfect) Predict(pc uint64, actual bool) bool { return actual }

// Update implements Predictor.
func (*Perfect) Update(pc uint64, actual bool) {}

// counter is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Gshare is the classic global-history predictor: the PC is XORed with a
// global history register to index a table of 2-bit counters.
type Gshare struct {
	table   []counter
	history uint64
	bits    uint
	mask    uint64
}

// NewGshare builds a gshare predictor with 2^bits counters.
func NewGshare(bits uint) (*Gshare, error) {
	if bits == 0 || bits > 24 {
		return nil, fmt.Errorf("bpred: gshare bits %d out of (0, 24]", bits)
	}
	g := &Gshare{bits: bits, mask: (1 << bits) - 1}
	g.table = make([]counter, 1<<bits)
	// Initialise to weakly taken, the usual convention.
	for i := range g.table {
		g.table[i] = 2
	}
	return g, nil
}

func (g *Gshare) idx(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64, actual bool) bool {
	return g.table[g.idx(pc)].taken()
}

// Update implements Predictor.
func (g *Gshare) Update(pc uint64, actual bool) {
	i := g.idx(pc)
	g.table[i] = g.table[i].update(actual)
	g.history = (g.history << 1) & g.mask
	if actual {
		g.history |= 1
	}
}

// Bimodal is a per-PC table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal builds a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) (*Bimodal, error) {
	if bits == 0 || bits > 24 {
		return nil, fmt.Errorf("bpred: bimodal bits %d out of (0, 24]", bits)
	}
	b := &Bimodal{mask: (1 << bits) - 1}
	b.table = make([]counter, 1<<bits)
	for i := range b.table {
		b.table[i] = 2
	}
	return b, nil
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64, actual bool) bool {
	return b.table[(pc>>2)&b.mask].taken()
}

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, actual bool) {
	i := (pc >> 2) & b.mask
	b.table[i] = b.table[i].update(actual)
}
