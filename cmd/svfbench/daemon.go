package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// svfdWorkers is the daemon's shard fleet size, one worker per core.
const svfdWorkers = 2

// daemon is one svfd process, started in its own process group so that
// stopping it also stops its shard workers.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // service listener, valid once ready is closed
	dir    string // journal root
	events string // NDJSON event log, "" when not recorded
	log    string // the daemon's standard error
	ready  chan struct{}
	exited chan struct{}
}

// liveDaemons tracks every started daemon until it has been waited for, so
// killDaemons can stop whatever an error path left running.
var liveDaemons = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// startDaemon starts svfd on the journal root dir with svfdWorkers workers
// and returns once /readyz answers 200.
func startDaemon(ctx context.Context, o *options, dir string, withEvents bool) (*daemon, error) {
	logf, err := os.CreateTemp(o.work, "svfd-*.log")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, log: logf.Name(), ready: make(chan struct{}), exited: make(chan struct{})}
	args := []string{"-listen", "127.0.0.1:0", "-journal", dir, "-workers", strconv.Itoa(svfdWorkers)}
	if withEvents {
		d.events = strings.TrimSuffix(d.log, ".log") + ".events"
		args = append(args, "-events", d.events)
	}
	d.cmd = exec.Command(o.svfd, args...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = logf
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start svfd: %w", err)
	}
	logf.Close() // the child holds its own descriptor
	liveDaemons.Lock()
	liveDaemons.m[d] = true
	liveDaemons.Unlock()

	go func() {
		sc := bufio.NewScanner(stdout)
		readied := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "svfd: listening on "); ok {
				d.addr = a
			}
			if line == "svfd: ready" && !readied {
				readied = true
				close(d.ready)
			}
		}
		_ = d.cmd.Wait()
		close(d.exited)
	}()

	select {
	case <-d.ready:
	case <-d.exited:
		return nil, fmt.Errorf("svfd exited before ready: %s", d.logTail())
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/readyz", nil)
	if err != nil {
		d.kill()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("readyz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("readyz: %s", resp.Status)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM, as an operator would, then kills
// whatever is left of its process group.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-d.exited:
		if !d.cmd.ProcessState.Success() {
			err = fmt.Errorf("svfd exited with %s: %s", d.cmd.ProcessState, d.logTail())
		}
	case <-time.After(20 * time.Second):
		err = fmt.Errorf("svfd did not drain within 20s")
	}
	d.kill()
	return err
}

// kill SIGKILLs the daemon's process group and waits for the daemon.
func (d *daemon) kill() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	liveDaemons.Lock()
	delete(liveDaemons.m, d)
	liveDaemons.Unlock()
}

// killDaemons kills every daemon still running.
func killDaemons() {
	liveDaemons.Lock()
	ds := make([]*daemon, 0, len(liveDaemons.m))
	for d := range liveDaemons.m {
		ds = append(ds, d)
	}
	liveDaemons.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// childrenPeakRSSMB is the largest resident set of any waited-for
// descendant: every campaign pass, daemon and shard worker the run
// started.
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return strings.TrimSpace(string(data))
}

// client is the single load generator's HTTP side: svfdClients keep-alive
// connections, one per client goroutine.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: svfdClients, MaxConnsPerHost: svfdClients}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// resultLine is one NDJSON record of GET /v1/jobs/{id}/results.
type resultLine struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
}

// span is one span of a job's trace document.
type span struct {
	name, id, parent string
	durUS            float64
}

// jobResult is what the client saw of one job.
type jobResult struct {
	code     int
	deduped  bool
	submitMS float64   // POST sent → 202/200 received
	jobMS    float64   // POST sent → last NDJSON line received
	cellMS   []float64 // POST sent → each cell's line received
	lines    []resultLine
	spans    []span // traced runs only
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runJob submits one job, streams its results, and, when traced, fetches
// its span tree right away (the daemon keeps only the newest 512 traces).
func (c *client) runJob(ctx context.Context, body []byte, traced bool) (*jobResult, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	var sub struct {
		Deduped    bool   `json:"deduped"`
		ResultsURL string `json:"results_url"`
		TraceURL   string `json:"trace_url"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&sub)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	res := &jobResult{code: resp.StatusCode, deduped: sub.Deduped, submitMS: sinceMS(t0)}
	if res.code != http.StatusAccepted && res.code != http.StatusOK {
		return res, nil
	}
	if decErr != nil {
		return nil, fmt.Errorf("submit response: %w", decErr)
	}

	err = c.get(ctx, sub.ResultsURL, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			res.cellMS = append(res.cellMS, sinceMS(t0))
			var l resultLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				return fmt.Errorf("results line: %w", err)
			}
			res.lines = append(res.lines, l)
		}
		return sc.Err()
	})
	if err != nil {
		return nil, err
	}
	res.jobMS = sinceMS(t0)

	if traced && !sub.Deduped {
		err = c.get(ctx, sub.TraceURL, func(r io.Reader) error {
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
					Args struct {
						Span   string `json:"span"`
						Parent string `json:"parent"`
					} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.NewDecoder(r).Decode(&doc); err != nil {
				return fmt.Errorf("trace document: %w", err)
			}
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					res.spans = append(res.spans, span{name: ev.Name, id: ev.Args.Span, parent: ev.Args.Parent, durUS: ev.Dur})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// get fetches path and hands a 200 body to read.
func (c *client) get(ctx context.Context, path string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// scrape reads the daemon's unlabeled /metrics samples.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	m := map[string]float64{}
	err := c.get(ctx, "/metrics", func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
				continue
			}
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
		return sc.Err()
	})
	return m, err
}

// eventTotals sums the journal_flush events (one per fsync) and run_finish
// durations an svfd event log recorded between from and to.
func eventTotals(path string, from, to time.Time) (fsyncs int, runBusyS float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			TS    string  `json:"ts"`
			Type  string  `json:"type"`
			DurMS float64 `json:"dur_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, fmt.Errorf("event log: %w", err)
		}
		if ev.Type != "journal_flush" && ev.Type != "run_finish" {
			continue
		}
		ts, err := time.Parse(time.RFC3339Nano, ev.TS)
		if err != nil || ts.Before(from) || ts.After(to) {
			continue
		}
		if ev.Type == "journal_flush" {
			fsyncs++
		} else {
			runBusyS += ev.DurMS / 1e3
		}
	}
	return fsyncs, runBusyS, sc.Err()
}

// copyJournals copies the daemon's cell and job journals (not their lock
// files) from root into a new directory under work.
func copyJournals(root, work string) (string, error) {
	dst, err := os.MkdirTemp(work, "journal-copy-")
	if err != nil {
		return "", err
	}
	for _, sub := range []string{"cells", "jobs"} {
		data, err := os.ReadFile(filepath.Join(root, sub, "journal.log"))
		if err != nil {
			return "", err
		}
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, sub, "journal.log"), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}
