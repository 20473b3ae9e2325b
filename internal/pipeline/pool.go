package pipeline

import "sync"

// Pool recycles Pipeline instances across runs so a campaign's per-cell
// cost is a Reset (a handful of memclrs over already-allocated rings)
// instead of re-allocating the RUU/LSQ/IFQ rings, ready bitmap, event
// wheel buckets, store table and consumer lists every time. Machines of
// different sizes can share a pool — Reset reuses whatever backing arrays
// still fit and reallocates the rest — but pools work best keyed per
// configuration so every ring is recycled.
//
// The zero value is ready to use. Pool is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*Pipeline
}

// poolMax bounds how many idle pipelines a pool retains (Put drops the
// machine once the pool is full): enough for one machine per CPU in a
// parallel campaign without pinning an unbounded number of large windows.
const poolMax = 16

// Get returns a pipeline reset for env, recycling a pooled machine when
// one is available.
func (pl *Pool) Get(env Env) (*Pipeline, error) {
	pl.mu.Lock()
	var p *Pipeline
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	}
	pl.mu.Unlock()
	if p == nil {
		return New(env)
	}
	if err := p.Reset(env); err != nil {
		return nil, err
	}
	return p, nil
}

// Put returns a pipeline to the pool. Callers must not reuse p afterwards.
// Machines that faulted mid-run are fine to Put — the next Get fully
// resets them — but callers may simply drop them instead.
func (pl *Pool) Put(p *Pipeline) {
	if p == nil {
		return
	}
	pl.mu.Lock()
	if len(pl.free) < poolMax {
		pl.free = append(pl.free, p)
	}
	pl.mu.Unlock()
}
