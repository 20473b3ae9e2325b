// Package stackcache implements the decoupled stack cache of Cho, Yew and
// Lee (ISCA 1999), the best-performing prior approach the paper compares
// the SVF against (§5.3). It is a direct-mapped, write-back, write-allocate
// cache dedicated to stack references, spilling to the unified L2.
//
// The crucial semantic difference from the SVF (§5.3.2): a stack cache is
// just a cache, so it can make no liveness assumptions. A write miss must
// fetch the rest of the line before the write completes (allocation
// traffic), and a dirty victim must always be written back even if the
// frame it belonged to has been deallocated (dead-data writebacks). The SVF
// eliminates both classes of traffic.
package stackcache

import (
	"fmt"

	"svf/internal/cache"
	"svf/internal/isa"
)

// Config parameterises the stack cache.
type Config struct {
	// SizeBytes is the capacity (the paper compares 2KB, 4KB, 8KB).
	SizeBytes int
	// LineBytes is the block size; defaults to 32 when zero.
	LineBytes int
	// HitLatency is the access latency in cycles on a hit; defaults to
	// 3 (same as the DL1) when zero.
	HitLatency int
	// Ports is the number of accesses the structure accepts per cycle;
	// 0 means unlimited. Port arbitration is done by the pipeline; the
	// value is carried here for configuration plumbing.
	Ports int
}

func (c *Config) fillDefaults() {
	if c.LineBytes == 0 {
		c.LineBytes = 32
	}
	if c.HitLatency == 0 {
		c.HitLatency = 3
	}
}

// StackCache is the decoupled stack cache structure.
type StackCache struct {
	cfg Config
	// inner is the direct-mapped cache itself, spilling into the L2.
	inner *cache.Cache

	// ctxFlushes counts context-switch flushes; ctxBytes the bytes
	// written back by them (Table 4).
	ctxFlushes uint64
	ctxBytes   uint64
}

// New builds a stack cache spilling into l2.
func New(cfg Config, l2 cache.Level) (*StackCache, error) {
	cfg.fillDefaults()
	if l2 == nil {
		return nil, fmt.Errorf("stackcache: nil L2")
	}
	inner, err := cache.New(cache.Config{
		Name:       "stack$",
		SizeBytes:  cfg.SizeBytes,
		LineBytes:  cfg.LineBytes,
		Assoc:      1, // the paper's stack cache is direct mapped
		HitLatency: cfg.HitLatency,
	}, l2)
	if err != nil {
		return nil, err
	}
	return &StackCache{cfg: cfg, inner: inner}, nil
}

// Config returns the configuration (with defaults filled).
func (s *StackCache) Config() Config { return s.cfg }

// Access services one stack reference and returns its latency in cycles.
// Write misses fetch the line (write-allocate) exactly like read misses.
func (s *StackCache) Access(addr uint64, write bool) int {
	return s.inner.Access(addr, write)
}

// ContextSwitch models a context switch: every dirty line is written back
// (whole lines — the stack cache's dirty granularity is the line) and the
// cache is invalidated.
func (s *StackCache) ContextSwitch() {
	before := s.inner.Stats().BytesOut
	s.inner.FlushAll()
	s.ctxFlushes++
	s.ctxBytes += s.inner.Stats().BytesOut - before
}

// Stats exposes the underlying cache counters.
func (s *StackCache) Stats() cache.Stats { return s.inner.Stats() }

// QuadWordsIn returns fill traffic in 64-bit quadwords (Table 3).
func (s *StackCache) QuadWordsIn() uint64 { return s.inner.Stats().BytesIn / isa.WordSize }

// QuadWordsOut returns writeback traffic in quadwords (Table 3),
// excluding context-switch flush traffic.
func (s *StackCache) QuadWordsOut() uint64 {
	return (s.inner.Stats().BytesOut - s.ctxBytes) / isa.WordSize
}

// CtxSwitchBytes returns the average bytes written back per context switch
// (Table 4), or 0 if none occurred.
func (s *StackCache) CtxSwitchBytes() uint64 {
	if s.ctxFlushes == 0 {
		return 0
	}
	return s.ctxBytes / s.ctxFlushes
}
