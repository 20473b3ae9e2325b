package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"svf/internal/sim"
	"svf/internal/telemetry"
)

// Handler returns the daemon's HTTP API. Every route is instrumented
// (svf_service_requests_total, svf_service_request_seconds).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, telemetry.InstrumentHTTP(s.cfg.Obs.Registry, label, h))
	}
	route("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleStatus)
	route("GET /v1/jobs/{id}/results", "/v1/jobs/{id}/results", s.handleResults)
	route("GET /v1/jobs/{id}/trace", "/v1/jobs/{id}/trace", s.handleTrace)
	route("GET /v1/progress", "/v1/progress", s.handleProgress)
	route("GET /healthz", "/healthz", s.handleHealthz)
	route("GET /readyz", "/readyz", s.handleReadyz)
	route("GET /metrics", "/metrics", s.handleMetrics)
	return mux
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleSubmit is POST /v1/jobs: parse, admit, journal, 202 — or a typed
// rejection (400 bad spec, 413 oversized, 429 overload + Retry-After,
// 503 draining).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.cfg.Obs.CountLabeled("svf_service_rejected_total", "reason", "too_large")
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "read body: " + err.Error()})
		return
	}
	spec, err := ParseJobSpec(body)
	if err != nil {
		s.cfg.Obs.CountLabeled("svf_service_rejected_total", "reason", "bad_spec")
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	// An inbound X-Svf-Trace header links the job to the client's own
	// trace. Parsed leniently: a malformed header is treated as absent —
	// tracing context must never fail a submission.
	parent, perr := telemetry.ParseSpanContext(r.Header.Get("X-Svf-Trace"))
	if perr != nil {
		parent = telemetry.SpanContext{}
	}
	res := s.SubmitTraced(spec, len(body), parent)
	switch {
	case errors.Is(res.shed, errDraining):
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "daemon is draining; retry against another instance or later"})
	case errors.Is(res.shed, errOverload):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": "admission queue full; retry after the interval in Retry-After"})
	default:
		code := http.StatusAccepted
		if res.deduped {
			code = http.StatusOK
		}
		w.Header().Set("X-Svf-Trace", res.job.trace)
		writeJSON(w, code, map[string]any{
			"id":          res.job.ID,
			"deduped":     res.deduped,
			"cells":       len(res.job.cells),
			"status_url":  "/v1/jobs/" + res.job.ID,
			"results_url": "/v1/jobs/" + res.job.ID + "/results",
			"trace_id":    res.job.trace,
			"trace_url":   "/v1/jobs/" + res.job.ID + "/trace",
		})
	}
}

// handleTrace is GET /v1/jobs/{id}/trace: the job's span tree rendered as
// Chrome trace-event JSON (load it in Perfetto or chrome://tracing). The
// rendering is deterministic, so once the job is done two fetches return
// identical bytes. With tracing disabled the document is valid but empty.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Svf-Trace", j.trace)
	_, _ = s.cfg.Obs.Tracer.WriteTrace(w, j.trace)
}

// cellStatus is one cell's row in a status response.
type cellStatus struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	Bench  string `json:"bench"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// handleStatus is GET /v1/jobs/{id}: job state plus per-cell states and
// the partial-failure report.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"})
		return
	}
	state, statuses := j.snapshot()
	cells := make([]cellStatus, len(statuses))
	counts := map[string]int{}
	failed := 0
	for i, cs := range statuses {
		spec := j.spec.Cells[i]
		cells[i] = cellStatus{Index: i, Kind: spec.Kind, Bench: spec.BenchID(), Key: spec.key, Status: cs.status, Error: cs.errMsg}
		counts[cs.status]++
		if cs.terminal() && cs.status != CellDone {
			failed++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":              j.ID,
		"state":           state,
		"cells":           cells,
		"counts":          counts,
		"partial_failure": state == JobDone && failed > 0,
		"failed_cells":    failed,
	})
}

// resultLine is one NDJSON record in a results stream. Its content is
// fully deterministic — no timestamps, no durations — so two fetches of
// the same job (or of the same spec on different daemons) are
// byte-identical.
type resultLine struct {
	Index   int              `json:"index"`
	Kind    string           `json:"kind"`
	Bench   string           `json:"bench"`
	Key     string           `json:"key"`
	Status  string           `json:"status"`
	Error   string           `json:"error,omitempty"`
	Result  *sim.Result      `json:"result,omitempty"`
	Traffic *trafficCounters `json:"traffic,omitempty"`
}

type trafficCounters struct {
	QWIn     uint64 `json:"qw_in"`
	QWOut    uint64 `json:"qw_out"`
	CtxBytes uint64 `json:"ctx_bytes"`
}

// handleResults is GET /v1/jobs/{id}/results: an NDJSON stream, one line
// per cell in submission order, each line written as its cell finishes.
// Completed cells are re-fetched through the cache (always a hit — from
// memory or the journal), which is what makes a post-restart fetch
// byte-identical to an uninterrupted one.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"})
		return
	}
	seq := s.resultsSeq.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i, spec := range j.spec.Cells {
		cs, ok := j.waitCell(r.Context(), i)
		if !ok {
			return // client went away; the job is untouched
		}
		if err := enc.Encode(s.resultLine(i, spec, cs)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		// Chaos: sever the stream after the first record — the
		// stand-in for a client that vanishes mid-download. The abort
		// must not disturb the job or the connection pool.
		if i == 0 && s.cfg.Plan.ClientDisconnectAt(seq) {
			s.cfg.Logf("svfd: inject: client-disconnect on results stream %d", seq)
			panic(http.ErrAbortHandler)
		}
	}
}

// resultLine builds the stream record of cell i, spec, in state cs.
func (s *Server) resultLine(i int, spec *CellSpec, cs cellState) resultLine {
	line := resultLine{Index: i, Kind: spec.Kind, Bench: spec.BenchID(), Key: spec.key, Status: cs.status, Error: cs.errMsg}
	if cs.status != CellDone {
		return line
	}
	// A done cell's payload always comes from the cache — Background
	// context because a completed cell must stream even mid-drain.
	switch spec.Kind {
	case CellRun:
		res, err := s.cfg.Cache.Run(context.Background(), spec.prof, *spec.Opt)
		if err != nil {
			line.Status, line.Error = CellFailed, "refetch: "+err.Error()
			return line
		}
		line.Result = res
	case CellTraffic:
		in, out, ctxBytes, err := s.cfg.Cache.Traffic(context.Background(), spec.prof, spec.policy, spec.SizeBytes, spec.MaxInsts, spec.CtxPeriod)
		if err != nil {
			line.Status, line.Error = CellFailed, "refetch: "+err.Error()
			return line
		}
		line.Traffic = &trafficCounters{QWIn: in, QWOut: out, CtxBytes: ctxBytes}
	}
	return line
}

// handleProgress is GET /v1/progress: the campaign progress snapshot
// (done/total/ETA, shard fleet state when sharded) plus the service's
// own job accounting.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{}
	if s.cfg.Obs.Progress != nil {
		out["progress"] = s.cfg.Obs.Progress.Snapshot()
	}
	type jobRow struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	s.mu.Lock()
	svc := map[string]any{
		"jobs_total":       len(s.order),
		"jobs_outstanding": s.outstanding,
		"queue_bytes":      s.outstandingBytes,
		"draining":         s.draining,
	}
	// The job list is bounded: the newest maxJobRows jobs, newest last.
	const maxJobRows = 100
	start := 0
	if len(s.order) > maxJobRows {
		start = len(s.order) - maxJobRows
	}
	ids := s.order[start:]
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	rows := make([]jobRow, len(jobs))
	for i, j := range jobs {
		state, statuses := j.snapshot()
		row := jobRow{ID: j.ID, State: state, Total: len(statuses)}
		for _, cs := range statuses {
			if cs.terminal() {
				row.Done++
			}
		}
		rows[i] = row
	}
	out["service"] = svc
	out["jobs"] = rows
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports 200 only when the daemon is started and not
// draining, and exposes both bound listener addresses so tests and CI
// never race on a hardcoded port.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	listen, obs := s.Addrs()
	body := map[string]any{
		"ready":    s.Ready(),
		"draining": s.Draining(),
		"listen":   listen,
		"obs":      obs,
	}
	code := http.StatusOK
	if !s.Ready() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeMetrics(w, r, s.cfg.Obs.Registry)
}
