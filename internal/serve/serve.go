// Package serve is the benchmark-as-a-service layer: a long-running
// HTTP/JSON API that accepts sweep requests (machine × procs ×
// perturb-profile × reps), schedules them on a runner.Pool, dedupes
// in-flight identical cells by their content-addressed fingerprint,
// and shares the on-disk result cache across all requests — the
// engine behind cmd/beffd.
//
// The data flow per request is
//
//	submit → admission control → expand to cells → pool queue
//	       → in-flight dedupe → runner.JSONTask (cache probe/compute/store)
//	       → per-job registry → NDJSON stream / poll / result fetch
//
// Results are rendered with the same indented-JSON encoding as the
// golden corpus, and a cell served over HTTP is byte-identical to the
// same cell run through cmd/beff, cmd/beffio or cmd/robustness —
// pinned by the golden-corpus-over-HTTP test in this package.
//
// Admission control is two-tier: a server-wide bound on admitted but
// unfinished cells (queue limit) and a per-client bound on unfinished
// jobs. Rejections are cheap, observable (per-client reject counters)
// and never block. Drain stops admission, lets every admitted cell
// finish, and returns — the graceful-SIGTERM path.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/runner"
)

// Config sizes the service.
type Config struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int

	// CacheDir roots the shared result cache ("" means
	// runner.DefaultCacheDir); NoCache disables on-disk memoisation
	// (in-flight dedupe still applies).
	CacheDir string
	NoCache  bool

	// QueueLimit bounds cells admitted but not yet finished,
	// server-wide; a submission that would exceed it is rejected with
	// 503. <= 0 means 256.
	QueueLimit int

	// MaxClientJobs bounds unfinished jobs per client; exceeding it is
	// rejected with 429. <= 0 means 4.
	MaxClientJobs int

	// MaxJobs bounds retained finished jobs (oldest evicted first);
	// <= 0 means 1024.
	MaxJobs int

	// Registry receives the service-level instruments and is exported
	// at /metrics and /vars; nil creates a fresh one.
	Registry *obs.Registry
}

// Server is the service. Create with New, mount Handler, retire with
// Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *runner.Cache
	pool  *runner.Pool

	mu         sync.Mutex
	draining   bool
	jobs       map[string]*job
	order      []string // submission order, for listing and eviction
	nextID     int
	clientJobs map[string]int
	pending    int // admitted, unfinished cells

	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsCanceled  *obs.Counter

	watchers sync.WaitGroup
}

// New builds a Server, opening the shared cache and starting the
// worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 256
	}
	if cfg.MaxClientJobs <= 0 {
		cfg.MaxClientJobs = 4
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.New()
	}
	var cache *runner.Cache
	if !cfg.NoCache {
		c, err := runner.OpenCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		c.Instrument(reg)
		cache = c
	}
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      cache,
		jobs:       map[string]*job{},
		clientJobs: map[string]int{},

		jobsSubmitted: reg.Counter("beffd_jobs_submitted_total"),
		jobsDone:      reg.Counter("beffd_jobs_done_total"),
		jobsCanceled:  reg.Counter("beffd_jobs_canceled_total"),
	}
	s.pool = runner.NewPool(cfg.Workers, &runner.Metrics{
		QueueDepth: reg.Gauge("beffd_queue_depth"),
		InFlight:   reg.Gauge("beffd_cells_inflight"),
		DedupeHits: reg.Counter("beffd_dedupe_hits_total"),
		Done:       reg.Counter("beffd_cells_done_total"),
		Failed:     reg.Counter("beffd_cells_failed_total"),
		CacheHits:  reg.Counter("beffd_cache_hits_total"),
	})
	return s, nil
}

// Registry exposes the service registry (for an NDJSON file stream or
// a secondary debug listener in cmd/beffd).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache reports the shared result cache, or nil when caching is
// disabled.
func (s *Server) Cache() *runner.Cache { return s.cache }

// Handler returns the full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/cells/{index}", s.handleCellResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	obs.Register(mux, s.reg)
	return mux
}

// Drain gracefully retires the server: admission stops (submissions
// get 503 reason "draining"), every admitted cell — queued or running
// — completes, job watchers flush, the cache's store releases
// its writer lock, and Drain returns. The result cache needs no
// separate flush: every entry is written atomically at cell
// completion. Returns ctx.Err if the context expires first; cells
// still running are not interrupted (and the cache stays open so they
// can persist their results).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		s.watchers.Wait()
		s.cache.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// apiError is the uniform error body.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, e)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientOf resolves the submitter identity: X-Beff-Client header,
// then the request body's client field, then "anonymous".
func clientOf(r *http.Request, spec *SweepRequest) string {
	if c := r.Header.Get("X-Beff-Client"); c != "" {
		return c
	}
	if spec.Client != "" {
		return spec.Client
	}
	return "anonymous"
}

func (s *Server) rejectCounter(client, reason string) *obs.Counter {
	return s.reg.Counter(fmt.Sprintf("beffd_admission_rejects_total{client=%q,reason=%q}", client, reason))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "decode sweep request: %v", err)
		return
	}
	client := clientOf(r, &spec)
	spec.normalize()
	if err := spec.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	var tasks []runner.Task
	var fspec *runner.FleetSpec
	var frefs []runner.FleetPointRef
	if spec.Fleet {
		var cells []runner.Cell[*core.Result]
		var err error
		fspec, err = spec.fleetSpec()
		if err == nil {
			cells, frefs, err = runner.FleetCells(fspec)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid_request", "%v", err)
			return
		}
		for _, c := range cells {
			tasks = append(tasks, runner.JSONTask(c, s.cache))
		}
	} else {
		var err error
		tasks, err = spec.tasks(s.cache)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid_request", "%v", err)
			return
		}
	}

	// Admission: all-or-nothing under one lock, so a rejected request
	// consumes nothing.
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.rejectCounter(client, "draining").Inc()
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining, not accepting sweeps")
		return
	case s.pending+len(tasks) > s.cfg.QueueLimit:
		pending := s.pending
		s.mu.Unlock()
		s.rejectCounter(client, "queue_full").Inc()
		writeErr(w, http.StatusServiceUnavailable, "queue_full",
			"sweep needs %d cells but only %d of %d queue slots are free",
			len(tasks), s.cfg.QueueLimit-pending, s.cfg.QueueLimit)
		return
	case s.clientJobs[client] >= s.cfg.MaxClientJobs:
		s.mu.Unlock()
		s.rejectCounter(client, "client_limit").Inc()
		writeErr(w, http.StatusTooManyRequests, "client_limit",
			"client %q already has %d unfinished jobs (limit %d)",
			client, s.cfg.MaxClientJobs, s.cfg.MaxClientJobs)
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%d", s.nextID), client, spec.Bench, time.Now())
	j.fleetSpec, j.fleetRefs = fspec, frefs
	s.pending += len(tasks)
	s.clientJobs[client]++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	s.jobsSubmitted.Inc()

	j.reg.Gauge(jobCellsTotal).Set(int64(len(tasks)))
	cells := make([]*cell, len(tasks))
	for i, t := range tasks {
		h, err := s.pool.Submit(t)
		if err != nil {
			// Drain raced the admission check; refuse the whole job and
			// release everything it admitted. Cancel is best-effort: a
			// cell already running finishes inside the pool's own drain.
			for _, c := range cells[:i] {
				c.handle.Cancel()
			}
			s.mu.Lock()
			s.pending -= len(tasks)
			s.clientJobs[client]--
			if s.clientJobs[client] == 0 {
				delete(s.clientJobs, client)
			}
			delete(s.jobs, j.id)
			for k, id := range s.order {
				if id == j.id {
					s.order = append(s.order[:k], s.order[k+1:]...)
					break
				}
			}
			s.mu.Unlock()
			writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining: %v", err)
			return
		}
		cells[i] = &cell{key: t.Key, handle: h}
		if h.Deduped() {
			j.reg.Counter(jobCellsDeduped).Inc()
		}
	}
	j.mu.Lock()
	j.cells = cells
	j.mu.Unlock()
	for _, c := range cells {
		s.watchers.Add(1)
		go s.watch(j, c)
	}
	writeJSON(w, http.StatusAccepted, j.status(true))
}

// watch waits for one cell's handle and folds its outcome into the
// job and the admission accounting.
func (s *Server) watch(j *job, c *cell) {
	defer s.watchers.Done()
	<-c.handle.Done()
	finished := j.resolve(c)
	s.mu.Lock()
	s.pending--
	if finished {
		s.clientJobs[j.client]--
		if s.clientJobs[j.client] == 0 {
			delete(s.clientJobs, j.client)
		}
	}
	s.mu.Unlock()
	if finished {
		if j.status(false).State == "canceled" {
			s.jobsCanceled.Inc()
		} else {
			s.jobsDone.Inc()
		}
	}
}

// evictLocked drops the oldest finished jobs beyond the retention
// bound. Unfinished jobs are never evicted. Caller holds s.mu.
func (s *Server) evictLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if j := s.jobs[id]; j != nil && j.done() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still running
		}
	}
}

// lookup resolves the {id} path value; a miss writes the 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown_job", "no job %q (it may have been evicted)", id)
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// jobResult is the aggregate result body: one entry per cell, with
// the raw (indented, golden-corpus-encoded) result value inline.
type jobResult struct {
	ID    string       `json:"id"`
	Bench string       `json:"bench"`
	Cells []cellResult `json:"cells"`

	// Fleet is the assembled fleet report of a fleet job; FleetError
	// explains its absence (a failed or canceled cell).
	Fleet      *report.FleetReport `json:"fleet,omitempty"`
	FleetError string              `json:"fleet_error,omitempty"`
}

type cellResult struct {
	Index   int             `json:"index"`
	Key     string          `json:"key"`
	Cached  bool            `json:"cached,omitempty"`
	Deduped bool            `json:"deduped,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if !j.done() {
		st := j.status(false)
		writeErr(w, http.StatusConflict, "not_done", "job %s is %s (%d/%d cells resolved)",
			j.id, st.State, st.CellsDone+st.CellsCanceled, st.CellsTotal)
		return
	}
	body, err := j.result().encode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode_failed", "job %s: %v", j.id, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// Cell results, as Layouts: JSONTask renders them at two spaces from
// the left margin, and writeJSON's encoder puts them three levels, six
// spaces, deep.
var (
	taskLayout   = runner.Layout{Prefix: 0, Indent: 2}
	resultLayout = runner.Layout{Prefix: 6, Indent: 2}
)

// encode renders r exactly as writeJSON does: the encoder's
// two-space-indented form, newline-terminated. It writes the envelope
// itself and splices each cell's result into the body, re-indented
// (runner.AppendReindent) instead of compacted and indented again by
// encoding/json. That is sound because every result is JSONTask output,
// json.MarshalIndent(v, "", "  ") plus a newline. The envelope is
// written first with the results left out, then the body is built at
// its exact size.
func (r jobResult) encode() ([]byte, error) {
	var env []byte // the body without the cell results
	type cut struct {
		at     int // where the result goes in env
		result []byte
	}
	var cuts []cut
	size := 0 // of the results, re-indented
	env = append(env, "{\n  \"id\": "...)
	env = appendString(env, r.ID)
	env = append(env, ",\n  \"bench\": "...)
	env = appendString(env, r.Bench)
	env = append(env, ",\n  \"cells\": "...)
	switch {
	case r.Cells == nil:
		env = append(env, "null"...)
	case len(r.Cells) == 0:
		env = append(env, "[]"...)
	default:
		env = append(env, '[')
		for i, c := range r.Cells {
			if i > 0 {
				env = append(env, ',')
			}
			env = append(env, "\n    {\n      \"index\": "...)
			env = strconv.AppendInt(env, int64(c.Index), 10)
			env = append(env, ",\n      \"key\": "...)
			env = appendString(env, c.Key)
			if c.Cached {
				env = append(env, ",\n      \"cached\": true"...)
			}
			if c.Deduped {
				env = append(env, ",\n      \"deduped\": true"...)
			}
			if c.Error != "" {
				env = append(env, ",\n      \"error\": "...)
				env = appendString(env, c.Error)
			}
			if len(c.Result) > 0 {
				env = append(env, ",\n      \"result\": "...)
				result := bytes.TrimSuffix(c.Result, []byte("\n"))
				n, ok := runner.ReindentLen(result, taskLayout, resultLayout)
				if !ok {
					return nil, fmt.Errorf("cell %d (%s): result is not indented JSON", c.Index, c.Key)
				}
				cuts = append(cuts, cut{len(env), result})
				size += n
			}
			env = append(env, "\n    }"...)
		}
		env = append(env, "\n  ]"...)
	}
	if r.Fleet != nil {
		fleet, err := json.MarshalIndent(r.Fleet, "  ", "  ")
		if err != nil {
			return nil, fmt.Errorf("fleet report: %w", err)
		}
		env = append(env, ",\n  \"fleet\": "...)
		env = append(env, fleet...)
	}
	if r.FleetError != "" {
		env = append(env, ",\n  \"fleet_error\": "...)
		env = appendString(env, r.FleetError)
	}
	env = append(env, "\n}\n"...)

	body := make([]byte, 0, len(env)+size)
	prev := 0
	for _, c := range cuts {
		body = append(body, env[prev:c.at]...)
		body = runner.AppendReindent(body, c.result, taskLayout, resultLayout)
		prev = c.at
	}
	return append(body, env[prev:]...), nil
}

// appendString appends s as a JSON string, as encoding/json writes it.
func appendString(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q...)
}

// result gathers a finished job's result body.
func (j *job) result() jobResult {
	out := jobResult{ID: j.id, Bench: j.bench}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.cells {
		cr := cellResult{Index: i, Key: c.key, Cached: c.cached, Deduped: c.handle.Deduped()}
		switch {
		case c.state == runner.TaskCanceled:
			cr.Error = "canceled"
		case c.err != nil:
			cr.Error = c.err.Error()
		default:
			cr.Result = c.value
		}
		out.Cells = append(out.Cells, cr)
	}
	if j.fleetSpec != nil {
		fr, err := assembleFleetLocked(j)
		if err != nil {
			out.FleetError = err.Error()
		} else {
			out.Fleet = fr
		}
	}
	return out
}

// assembleFleetLocked folds a finished fleet job's raw cell values
// into the fleet report. Caller holds j.mu.
func assembleFleetLocked(j *job) (*report.FleetReport, error) {
	values := make([]*core.Result, len(j.cells))
	for i, c := range j.cells {
		switch {
		case c.state == runner.TaskCanceled:
			return nil, fmt.Errorf("cell %d (%s) canceled", i, c.key)
		case c.err != nil:
			return nil, fmt.Errorf("cell %d (%s): %v", i, c.key, c.err)
		}
		var res core.Result
		if err := json.Unmarshal(c.value, &res); err != nil {
			return nil, fmt.Errorf("cell %d (%s): decode result: %v", i, c.key, err)
		}
		values[i] = &res
	}
	return runner.AssembleFleet(j.fleetSpec, j.fleetRefs, values)
}

// handleCellResult serves one cell's raw result bytes — exactly the
// indented JSON the golden corpus pins, no envelope, so a byte
// comparison against testdata/golden/ needs no re-encoding.
func (s *Server) handleCellResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "cell index %q: %v", r.PathValue("index"), err)
		return
	}
	j.mu.Lock()
	if idx < 0 || idx >= len(j.cells) {
		n := len(j.cells)
		j.mu.Unlock()
		writeErr(w, http.StatusNotFound, "unknown_cell", "job %s has %d cells, no index %d", j.id, n, idx)
		return
	}
	c := j.cells[idx]
	resolved, state, value, cerr := c.resolved, c.state, c.value, c.err
	j.mu.Unlock()
	switch {
	case !resolved:
		writeErr(w, http.StatusConflict, "not_done", "cell %d of job %s has not finished", idx, j.id)
	case state == runner.TaskCanceled:
		writeErr(w, http.StatusConflict, "canceled", "cell %d of job %s was canceled", idx, j.id)
	case cerr != nil:
		writeErr(w, http.StatusInternalServerError, "cell_failed", "%v", cerr)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(value)
	}
}

// flushWriter flushes after every write so NDJSON progress lines
// reach the client as they are produced, not when the response
// buffer fills.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	interval := 500 * time.Millisecond
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "bad_request", "interval %q: not a non-negative duration", q)
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	fw := flushWriter{w: w, f: f}

	// The stream is the obs NDJSON Streamer pointed at the job's own
	// registry: one snapshot line per interval while the job runs, one
	// final snapshot on close, then a job-summary line.
	str := obs.NewStreamer(j.reg, fw, interval)
	select {
	case <-j.finished:
	case <-r.Context().Done():
	}
	str.Close()
	if j.done() {
		summary := struct {
			Done bool      `json:"done"`
			Job  JobStatus `json:"job"`
		}{Done: true, Job: j.status(false)}
		enc := json.NewEncoder(fw)
		enc.Encode(summary)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.done() {
		writeErr(w, http.StatusConflict, "already_done", "job %s has already finished", j.id)
		return
	}
	j.mu.Lock()
	cells := append([]*cell(nil), j.cells...)
	j.mu.Unlock()
	canceled := 0
	for _, c := range cells {
		if c.handle.Cancel() {
			canceled++
		}
	}
	// Running cells finish on their own; the watchers settle the
	// accounting either way.
	writeJSON(w, http.StatusOK, struct {
		Canceled int       `json:"cells_canceled"`
		Job      JobStatus `json:"job"`
	}{Canceled: canceled, Job: j.status(false)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, pending, jobs := s.draining, s.pending, len(s.jobs)
	s.mu.Unlock()
	body := struct {
		Status  string `json:"status"`
		Pending int    `json:"pending_cells"`
		Jobs    int    `json:"jobs"`
	}{Status: "ok", Pending: pending, Jobs: jobs}
	status := http.StatusOK
	if draining {
		// Readiness semantics: a draining server should fall out of
		// load-balancer rotation.
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}
