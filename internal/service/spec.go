// Package service is the simulation-as-a-service layer: a long-lived HTTP
// daemon (cmd/svfd) that accepts campaign submissions, runs them through
// the shared sim.RunCache — and therefore through whatever executor and
// store the cache was built with, including the lease-supervised shard
// pool — and streams per-cell results back. Robustness is the package's
// reason to exist: admission is bounded (429 + Retry-After, a byte budget
// on queued work), every job and cell carries a deadline propagated as
// context cancellation, identical submissions coalesce onto one running
// cell via the cache's content fingerprints, accepted jobs are journaled
// so a kill -9'd daemon resumes them on restart, poison cells surface as
// per-job partial-failure reports, and SIGTERM drains gracefully. See
// DESIGN.md §5h.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// Admission-side spec limits. These bound what a single POST /v1/jobs can
// ask for before any simulation work happens; the byte budget on queued
// work is enforced separately by the server.
const (
	// MaxCellsPerJob bounds one job's cell count.
	MaxCellsPerJob = 4096
	// MaxCellInsts bounds one cell's instruction budget — a tenant can
	// submit many cells, not one unbounded run.
	MaxCellInsts = 50_000_000
)

// SpecError is a typed job-spec rejection: which field, and why. Every
// 400 the daemon returns carries one of these rendered as JSON.
type SpecError struct {
	// Field locates the offender ("cells[3].bench"); empty for
	// document-level problems.
	Field string
	// Msg says what is wrong.
	Msg string
}

func (e *SpecError) Error() string {
	if e.Field == "" {
		return "bad job spec: " + e.Msg
	}
	return fmt.Sprintf("bad job spec: %s: %s", e.Field, e.Msg)
}

// JobSpec is the POST /v1/jobs payload: a batch of simulation cells plus
// optional deadlines. The wire encoding of sim.Options uses its Go field
// names (the same encoding the shard protocol ships), e.g.
// {"Policy":1,"MaxInsts":200000,"SVFInfinite":true}.
type JobSpec struct {
	// Cells is the batch; at least one, at most MaxCellsPerJob, no two
	// with the same cell identity.
	Cells []*CellSpec `json:"cells"`
	// JobDeadlineMS bounds the whole job's wall-clock run time;
	// 0 means the server default.
	JobDeadlineMS int64 `json:"job_deadline_ms,omitempty"`
	// CellDeadlineMS bounds each cell; 0 means the server default.
	CellDeadlineMS int64 `json:"cell_deadline_ms,omitempty"`
}

// CellSpec is one unit of requested work: a timing run or a traffic
// measurement over a workload profile.
type CellSpec struct {
	// Kind is "run" or "traffic".
	Kind string `json:"kind"`
	// Bench names a bundled workload (synth.Bundled); exactly one of
	// Bench/Profile must be set.
	Bench string `json:"bench,omitempty"`
	// Profile is a full custom workload profile, validated with
	// Profile.Validate before any work is admitted.
	Profile *synth.Profile `json:"profile,omitempty"`
	// Opt is the run configuration (run cells). FaultPlan and Probe are
	// rejected — tenants do not inject faults or attach probes.
	Opt *sim.Options `json:"opt,omitempty"`

	// Policy ("svf", "stackcache", "rse") selects the traffic cell's
	// stack structure.
	Policy string `json:"policy,omitempty"`
	// SizeBytes is the structure size for traffic cells (default 8 KiB).
	SizeBytes int `json:"size_bytes,omitempty"`
	// MaxInsts bounds the cell (default 1e6, capped at MaxCellInsts).
	MaxInsts int `json:"max_insts,omitempty"`
	// CtxPeriod enables context switching for traffic cells.
	CtxPeriod uint64 `json:"ctx_period,omitempty"`

	// cell is what the spec resolves into (never serialized): the one
	// value the run cache executes, whose key is the exact string the
	// cache journals the cell under, so job fingerprints and the cell
	// journal agree on what a cell is. A run cell shares Opt. A resolved
	// cell is never modified again, so a server shares one among every
	// job that names it (Server.internLocked); its profile is then shared
	// too, and a bundled workload's is synth's own table entry.
	cell *sim.Cell
}

// BenchID returns the resolved workload's display ID.
func (c *CellSpec) BenchID() string { return c.cell.Prof.ID() }

// Cell kinds.
const (
	CellRun     = "run"
	CellTraffic = "traffic"
)

// ParseJobSpec decodes and fully resolves one submission payload. Every
// rejection is a *SpecError; nothing about a returned spec needs further
// validation before execution.
func ParseJobSpec(data []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, &SpecError{Msg: "invalid JSON: " + err.Error()}
	}
	// A second document in the payload is a malformed request, not noise
	// to ignore.
	if dec.More() {
		return nil, &SpecError{Msg: "trailing data after the job object"}
	}
	if err := spec.resolve(); err != nil {
		return nil, err
	}
	return spec, nil
}

// resolve validates the spec and resolves every cell into its sim.Cell,
// which derives the cell's canonical identity. It is called by
// ParseJobSpec and again when a journaled job is replayed after a restart.
func (s *JobSpec) resolve() error {
	if len(s.Cells) == 0 {
		return &SpecError{Field: "cells", Msg: "empty job"}
	}
	if len(s.Cells) > MaxCellsPerJob {
		return &SpecError{Field: "cells", Msg: fmt.Sprintf("%d cells exceeds the %d-cell limit", len(s.Cells), MaxCellsPerJob)}
	}
	if s.JobDeadlineMS < 0 {
		return &SpecError{Field: "job_deadline_ms", Msg: "negative"}
	}
	if s.CellDeadlineMS < 0 {
		return &SpecError{Field: "cell_deadline_ms", Msg: "negative"}
	}
	seen := make(map[string]int, len(s.Cells))
	for i, c := range s.Cells {
		if c == nil {
			return &SpecError{Field: fmt.Sprintf("cells[%d]", i), Msg: "null cell"}
		}
		if err := c.resolve(i); err != nil {
			return err
		}
		if prev, dup := seen[c.cell.Key()]; dup {
			return &SpecError{Field: fmt.Sprintf("cells[%d]", i), Msg: fmt.Sprintf("duplicate of cells[%d] (same cell identity)", prev)}
		}
		seen[c.cell.Key()] = i
	}
	return nil
}

func (c *CellSpec) resolve(i int) error {
	field := func(name string) string { return fmt.Sprintf("cells[%d].%s", i, name) }
	var prof *synth.Profile
	switch {
	case c.Bench != "" && c.Profile != nil:
		return &SpecError{Field: field("bench"), Msg: "bench and profile are mutually exclusive"}
	case c.Bench != "":
		prof = synth.Bundled(c.Bench)
		if prof == nil {
			return &SpecError{Field: field("bench"), Msg: fmt.Sprintf("unknown workload %q", c.Bench)}
		}
	case c.Profile != nil:
		if err := c.Profile.Validate(); err != nil {
			return &SpecError{Field: field("profile"), Msg: err.Error()}
		}
		prof = c.Profile
	default:
		return &SpecError{Field: field("bench"), Msg: "one of bench or profile is required"}
	}

	switch c.Kind {
	case CellRun:
		if c.Opt == nil {
			c.Opt = &sim.Options{}
		}
		if c.Opt.FaultPlan != nil {
			return &SpecError{Field: field("opt.FaultPlan"), Msg: "fault injection is not accepted over the API"}
		}
		if c.Opt.Probe != nil {
			return &SpecError{Field: field("opt.Probe"), Msg: "probes are not accepted over the API"}
		}
		if c.Opt.MaxInsts < 0 || c.Opt.MaxInsts > MaxCellInsts {
			return &SpecError{Field: field("opt.MaxInsts"), Msg: fmt.Sprintf("%d outside [0, %d]", c.Opt.MaxInsts, MaxCellInsts)}
		}
		if c.Policy != "" || c.SizeBytes != 0 || c.CtxPeriod != 0 || c.MaxInsts != 0 {
			return &SpecError{Field: field("kind"), Msg: "run cells configure via opt, not the traffic fields"}
		}
		c.cell = sim.RunCell(prof, c.Opt)
	case CellTraffic:
		if c.Opt != nil {
			return &SpecError{Field: field("opt"), Msg: "traffic cells configure via policy/size_bytes/max_insts/ctx_period, not opt"}
		}
		// A traffic cell measures a stack structure, so the baseline,
		// which has none, is no policy here.
		pol, err := pipeline.ParsePolicy(c.Policy)
		if err != nil || pol == pipeline.PolicyNone {
			return &SpecError{Field: field("policy"), Msg: fmt.Sprintf("unknown policy %q (want %s)", c.Policy, strings.Join(policyNames(), ", "))}
		}
		if c.SizeBytes < 0 {
			return &SpecError{Field: field("size_bytes"), Msg: "negative"}
		}
		if c.SizeBytes == 0 {
			c.SizeBytes = 8 << 10
		}
		if c.MaxInsts < 0 || c.MaxInsts > MaxCellInsts {
			return &SpecError{Field: field("max_insts"), Msg: fmt.Sprintf("%d outside [0, %d]", c.MaxInsts, MaxCellInsts)}
		}
		if c.MaxInsts == 0 {
			c.MaxInsts = 1_000_000
		}
		c.cell = sim.TrafficCell(prof, pol, c.SizeBytes, c.MaxInsts, c.CtxPeriod)
	default:
		return &SpecError{Field: field("kind"), Msg: fmt.Sprintf("unknown kind %q (want %q or %q)", c.Kind, CellRun, CellTraffic)}
	}
	return nil
}

// policyNames lists the accepted traffic policy names, sorted.
func policyNames() []string {
	names := []string{pipeline.PolicySVF.String(), pipeline.PolicyStackCache.String(), pipeline.PolicyRSE.String()}
	sort.Strings(names)
	return names
}

// ID derives the job's content-fingerprint identity: a hash over the
// ordered cell identities and the deadlines. Identical submissions —
// a client retry after a lost response, or two tenants asking for the
// same sweep — map to the same job ID and coalesce onto one job.
func (s *JobSpec) ID() string {
	h := sha256.New()
	fmt.Fprintf(h, "svfd-job-v1|%d|%d\n", s.JobDeadlineMS, s.CellDeadlineMS)
	for _, c := range s.Cells {
		h.Write([]byte(c.cell.Key()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
