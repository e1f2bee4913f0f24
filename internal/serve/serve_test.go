package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcbench/beff/internal/runner"
)

// newTestServer builds a Server with a per-test cache directory and
// mounts it on an httptest listener. Drain (with cleanup) runs at test
// end so leaked watcher goroutines fail under -race/-count.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" && !cfg.NoCache {
		cfg.CacheDir = filepath.Join(t.TempDir(), "cache")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// post submits body to path and returns status plus response bytes.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	return postClient(t, ts, path, body, "")
}

func postClient(t *testing.T, ts *httptest.Server, path, body, client string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Beff-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func del(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("DELETE", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeStatus(t *testing.T, data []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decode job status: %v\n%s", err, data)
	}
	return st
}

func errCode(t *testing.T, data []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("decode error body: %v\n%s", err, data)
	}
	return e.Error.Code
}

// waitState polls the job until pred holds or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, data := get(t, ts, "/api/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job %s: status %d: %s", id, code, data)
		}
		st := decodeStatus(t, data)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the wanted state; last: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// blockPoolWorkers occupies every worker of the server's pool with
// tasks that hold until the returned release func is called — the
// deterministic way to observe queued cells, dedupe and admission.
func blockPoolWorkers(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		_, err := s.pool.Submit(runner.Task{
			Key: fmt.Sprintf("block%d", i),
			Run: func() (json.RawMessage, bool, error) {
				started <- struct{}{}
				<-ch
				return json.RawMessage(`null`), false, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("pool workers never picked up the blocker tasks")
		}
	}
	return func() { close(ch) }
}

// goldenSpec is the sweep request matching the golden corpus's beff
// options exactly (internal/check/golden_test.go goldenBeffOptions):
// procs 8, L_max override 64 KiB, looplength cap 2, seed 1, one rep.
const goldenSpec = `{"bench":"beff","machines":["t3e"],"procs":[8],"lmax_override":65536,"max_looplength":2}`

// goldenIOSpec is the b_eff_io request matching the corpus's
// beffio_t3e.json entry.
const goldenIOSpec = `{"bench":"beffio","machines":["t3e"],"procs":[4],"t_seconds":0.5}`

// quickSpec is a cheaper cell for tests that only need *some* work.
const quickSpec = `{"bench":"beff","machines":["t3e"],"procs":[4],"lmax_override":1024,"max_looplength":1}`

// TestGoldenOverHTTP is the acceptance pin of the service layer: a
// sweep cell submitted over HTTP must return bytes identical to the
// golden corpus entry for the same configuration — the proof that the
// daemon path (pool, dedupe, cache, HTTP encoding) does not perturb
// results relative to the CLI path that generated the corpus.
func TestGoldenOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name, spec, golden string
	}{
		{"beff", goldenSpec, "beff_t3e.json"},
		{"beffio", goldenIOSpec, "beffio_t3e.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := post(t, ts, "/api/v1/sweeps", tc.spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", code, data)
			}
			st := decodeStatus(t, data)
			waitState(t, ts, st.ID, func(s JobStatus) bool { return s.State == "done" })

			code, cell := get(t, ts, "/api/v1/jobs/"+st.ID+"/cells/0")
			if code != http.StatusOK {
				t.Fatalf("cell fetch: status %d: %s", code, cell)
			}
			want, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cell, want) {
				t.Fatalf("cell served over HTTP differs from golden %s (%d vs %d bytes)", tc.golden, len(cell), len(want))
			}
		})
	}
}

// TestStreamNDJSON pins the progress stream: NDJSON lines while the
// job runs, a final summary line with done:true once it finishes.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	st := decodeStatus(t, data)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/stream?interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		lines++
		last = append(last[:0], sc.Bytes()...)
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("stream line %d is not JSON: %v\n%s", lines, err, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Fatalf("stream produced %d lines, want at least a snapshot and a summary", lines)
	}
	var summary struct {
		Done bool      `json:"done"`
		Job  JobStatus `json:"job"`
	}
	if err := json.Unmarshal(last, &summary); err != nil || !summary.Done {
		t.Fatalf("last stream line is not the done summary: %v\n%s", err, last)
	}
	if summary.Job.State != "done" || summary.Job.CellsDone != 1 {
		t.Fatalf("summary job %+v, want done with 1 cell", summary.Job)
	}
}

// TestDedupeConcurrentSubmissions pins the tentpole dedupe contract:
// two identical sweeps submitted while the first is still pending
// execute ONE cell; the second job's handle attaches to the first's
// execution and both report identical results.
func TestDedupeConcurrentSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := blockPoolWorkers(t, s, 1)

	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", code, data)
	}
	j1 := decodeStatus(t, data)
	code, data = post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d: %s", code, data)
	}
	j2 := decodeStatus(t, data)
	if j2.CellsDeduped != 1 {
		t.Fatalf("second identical submission reported %d deduped cells, want 1", j2.CellsDeduped)
	}
	if j1.CellsDeduped != 0 {
		t.Fatalf("first submission reported %d deduped cells, want 0", j1.CellsDeduped)
	}

	release()
	waitState(t, ts, j1.ID, func(s JobStatus) bool { return s.State == "done" })
	waitState(t, ts, j2.ID, func(s JobStatus) bool { return s.State == "done" })

	_, c1 := get(t, ts, "/api/v1/jobs/"+j1.ID+"/cells/0")
	_, c2 := get(t, ts, "/api/v1/jobs/"+j2.ID+"/cells/0")
	if !bytes.Equal(c1, c2) {
		t.Fatal("deduped jobs returned different results")
	}
	// Only one execution ran: exactly one dedupe hit, one task done.
	snap := s.Registry().Snapshot()
	if v, _ := snap.Get("beffd_dedupe_hits_total"); v.Value != 1 {
		t.Fatalf("dedupe hits %v, want 1", v.Value)
	}
	// 1 blocker + 1 real cell; the second request added none.
	if v, _ := snap.Get("beffd_cells_done_total"); v.Value != 2 {
		t.Fatalf("cells done %v, want 2 (blocker + one shared execution)", v.Value)
	}
}

// TestAdmissionQueueFull: the server-wide bound on admitted-unfinished
// cells rejects with 503 queue_full and a per-client reject counter.
func TestAdmissionQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueLimit: 1})
	release := blockPoolWorkers(t, s, 1)
	defer release()

	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", code, data)
	}
	code, data = postClient(t, ts, "/api/v1/sweeps", goldenSpec, "bob")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit submit: status %d, want 503: %s", code, data)
	}
	if c := errCode(t, data); c != "queue_full" {
		t.Fatalf("error code %q, want queue_full", c)
	}
	snap := s.Registry().Snapshot()
	name := `beffd_admission_rejects_total{client="bob",reason="queue_full"}`
	if v, ok := snap.Get(name); !ok || v.Value != 1 {
		t.Fatalf("reject counter %s = %v (present %v), want 1", name, v.Value, ok)
	}
	// A multi-cell sweep that does not fit is rejected whole.
	code, data = post(t, ts, "/api/v1/sweeps", `{"bench":"beff","machines":["t3e","sp"],"procs":[4],"lmax_override":1024,"max_looplength":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("oversized sweep: status %d, want 503: %s", code, data)
	}
}

// TestAdmissionClientLimit: the per-client unfinished-job bound
// rejects with 429 client_limit and releases when the job finishes.
func TestAdmissionClientLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxClientJobs: 1})
	release := blockPoolWorkers(t, s, 1)

	code, data := postClient(t, ts, "/api/v1/sweeps", quickSpec, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", code, data)
	}
	j1 := decodeStatus(t, data)
	code, data = postClient(t, ts, "/api/v1/sweeps", goldenSpec, "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second job for alice: status %d, want 429: %s", code, data)
	}
	if c := errCode(t, data); c != "client_limit" {
		t.Fatalf("error code %q, want client_limit", c)
	}
	// Another client is not affected.
	code, data = postClient(t, ts, "/api/v1/sweeps", quickSpec, "carol")
	if code != http.StatusAccepted {
		t.Fatalf("carol's submit: %d: %s", code, data)
	}

	release()
	waitState(t, ts, j1.ID, func(st JobStatus) bool { return st.State == "done" })
	// alice's slot frees once her job finishes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data = postClient(t, ts, "/api/v1/sweeps", quickSpec, "alice")
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice's slot never freed: %d: %s", code, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = s
}

// TestCancelJob: DELETE cancels queued cells; the job resolves as
// canceled and the cell endpoint reports it.
func TestCancelJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := blockPoolWorkers(t, s, 1)
	defer release()

	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	j := decodeStatus(t, data)
	code, data = del(t, ts, "/api/v1/jobs/"+j.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, data)
	}
	var out struct {
		Canceled int `json:"cells_canceled"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.Canceled != 1 {
		t.Fatalf("cancel response %s (err %v), want 1 cell canceled", data, err)
	}
	st := waitState(t, ts, j.ID, func(st JobStatus) bool { return st.State == "canceled" })
	if st.CellsCanceled != 1 || st.CellsDone != 0 {
		t.Fatalf("final status %+v, want 1 canceled / 0 done", st)
	}
	code, data = get(t, ts, "/api/v1/jobs/"+j.ID+"/cells/0")
	if code != http.StatusConflict || errCode(t, data) != "canceled" {
		t.Fatalf("canceled cell fetch: %d %s, want 409 canceled", code, data)
	}
	// Cancelling twice conflicts: the job is already finished.
	code, data = del(t, ts, "/api/v1/jobs/"+j.ID)
	if code != http.StatusConflict || errCode(t, data) != "already_done" {
		t.Fatalf("second cancel: %d %s, want 409 already_done", code, data)
	}
}

// TestGracefulDrain pins the retirement contract: during Drain,
// admission rejects with 503 draining and healthz flips to 503, but
// every already-admitted cell runs to completion and its result stays
// fetchable.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{Workers: 1, CacheDir: filepath.Join(t.TempDir(), "cache")}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := blockPoolWorkers(t, s, 1)

	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	j := decodeStatus(t, data)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, data = post(t, ts, "/api/v1/sweeps", goldenSpec)
	if code != http.StatusServiceUnavailable || errCode(t, data) != "draining" {
		t.Fatalf("submit while draining: %d %s, want 503 draining", code, data)
	}
	code, data = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d: %s", code, data)
	}

	release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain never completed")
	}
	// The admitted cell finished during drain and its result is served.
	code, data = get(t, ts, "/api/v1/jobs/"+j.ID)
	if code != http.StatusOK {
		t.Fatalf("job after drain: %d: %s", code, data)
	}
	if st := decodeStatus(t, data); st.State != "done" {
		t.Fatalf("job state %q after drain, want done", st.State)
	}
	code, _ = get(t, ts, "/api/v1/jobs/"+j.ID+"/cells/0")
	if code != http.StatusOK {
		t.Fatalf("cell after drain: %d", code)
	}
}

// TestValidation pins the request-rejection surface.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, code string
		status           int
	}{
		{"bad bench", `{"bench":"nope","machines":["t3e"],"procs":[4]}`, "invalid_request", 400},
		{"unknown machine", `{"bench":"beff","machines":["enaic"],"procs":[4]}`, "invalid_request", 400},
		{"no procs", `{"bench":"beff","machines":["t3e"]}`, "invalid_request", 400},
		{"bad procs", `{"bench":"beff","machines":["t3e"],"procs":[0]}`, "invalid_request", 400},
		{"unknown preset", `{"bench":"beff","machines":["t3e"],"procs":[4],"perturb":"hurricane"}`, "invalid_request", 400},
		{"unknown field", `{"bench":"beff","machines":["t3e"],"procs":[4],"bogus":1}`, "bad_request", 400},
		// The sharded executor and its request field are gone.
		{"shards", `{"bench":"beff","machines":["t3e"],"procs":[4],"shards":2}`, "bad_request", 400},
		{"fleet shards", `{"fleet":true,"machines":["t3e"],"procs":[4],"shards":2}`, "bad_request", 400},
		{"workload shards", `{"bench":"workload","machines":["cluster"],"procs":[2],"shards":8,"workload":{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":65536,"count":4}}]}}`, "bad_request", 400},
		{"not json", `{"bench"`, "bad_request", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := post(t, ts, "/api/v1/sweeps", tc.body)
			if code != tc.status {
				t.Fatalf("status %d, want %d: %s", code, tc.status, data)
			}
			if c := errCode(t, data); c != tc.code {
				t.Fatalf("error code %q, want %q", c, tc.code)
			}
		})
	}
	// Unknown job / cell routes.
	if code, data := get(t, ts, "/api/v1/jobs/j999"); code != 404 || errCode(t, data) != "unknown_job" {
		t.Fatalf("unknown job: %d %s", code, data)
	}
	if code, data := get(t, ts, "/api/v1/jobs/j999/result"); code != 404 {
		t.Fatalf("unknown job result: %d %s", code, data)
	}
}

// TestResultNotDone: the aggregate result endpoint refuses with 409
// until every cell resolved, then serves all cells with raw values.
func TestResultNotDone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := blockPoolWorkers(t, s, 1)

	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	j := decodeStatus(t, data)
	code, data = get(t, ts, "/api/v1/jobs/"+j.ID+"/result")
	if code != http.StatusConflict || errCode(t, data) != "not_done" {
		t.Fatalf("early result: %d %s, want 409 not_done", code, data)
	}
	code, data = get(t, ts, "/api/v1/jobs/"+j.ID+"/cells/0")
	if code != http.StatusConflict || errCode(t, data) != "not_done" {
		t.Fatalf("early cell: %d %s, want 409 not_done", code, data)
	}

	release()
	waitState(t, ts, j.ID, func(st JobStatus) bool { return st.State == "done" })
	code, data = get(t, ts, "/api/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, data)
	}
	var out jobResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 1 || len(out.Cells[0].Result) == 0 || out.Cells[0].Key != "beff:t3e@4" {
		t.Fatalf("result body %s", data)
	}
}

// TestCacheSharedAcrossRequests: a resubmission after completion is
// served from the on-disk cache, visible as cells_cached in the job.
func TestCacheSharedAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	j1 := decodeStatus(t, data)
	waitState(t, ts, j1.ID, func(st JobStatus) bool { return st.State == "done" })

	code, data = post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d: %s", code, data)
	}
	j2 := decodeStatus(t, data)
	st := waitState(t, ts, j2.ID, func(st JobStatus) bool { return st.State == "done" })
	if st.CellsCached != 1 {
		t.Fatalf("resubmitted cell cached=%d, want 1", st.CellsCached)
	}
	snap := s.Registry().Snapshot()
	if v, _ := snap.Get("beffd_cache_hits_total"); v.Value != 1 {
		t.Fatalf("cache hits %v, want 1", v.Value)
	}
}

// TestStoreMetricsExported: the cache's store publishes its
// instruments into the service registry, so /metrics exposes segment
// and entry gauges plus the swallowed-persistence-failure counter.
func TestStoreMetricsExported(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if c := s.Cache(); c == nil || c.ReadOnly() != nil {
		t.Fatalf("cache not writable: %+v", c)
	}
	code, data := post(t, ts, "/api/v1/sweeps", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	waitState(t, ts, st.ID, func(j JobStatus) bool { return j.State == "done" })

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, name := range []string{
		"store_puts_total",
		"store_gets_total",
		"store_get_misses_total",
		"store_segments",
		"store_entries_live",
		"store_bytes_live",
		"store_compactions_total",
		"runner_cache_store_errors_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics missing %s:\n%s", name, body)
		}
	}
	snap := s.Registry().Snapshot()
	if v, ok := snap.Get("store_entries_live"); !ok || v.Value != 1 {
		t.Fatalf("store_entries_live = %+v, %v", v, ok)
	}
	if v, ok := snap.Get("store_puts_total"); !ok || v.Value != 1 {
		t.Fatalf("store_puts_total = %+v, %v", v, ok)
	}
	if v, ok := snap.Get("runner_cache_store_errors_total"); !ok || v.Value != 0 {
		t.Fatalf("runner_cache_store_errors_total = %+v, %v", v, ok)
	}
}

// TestGoldenFromWarmStore pins that a cache hit over HTTP is golden:
// the golden cells computed into a store by one server are served from
// that store by the next server on the same directory, byte-identical
// to the corpus entries without being recomputed. The warm server
// fetches each cell twice, both times from the stored bytes. A fresh
// store computes each cell, then serves the entry it stored.
func TestGoldenFromWarmStore(t *testing.T) {
	corpus := []struct{ spec, golden string }{
		{goldenSpec, "beff_t3e.json"},
		{goldenIOSpec, "beffio_t3e.json"},
	}
	// fetchEach runs every corpus spec as a new job on a server over
	// dir, once per entry of cached, and checks the job's cached-cell
	// count and the cell's bytes against the golden entry.
	fetchEach := func(t *testing.T, dir string, cached ...int) {
		_, ts := newTestServer(t, Config{Workers: 2, CacheDir: dir})
		for _, c := range corpus {
			want, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range cached {
				code, data := post(t, ts, "/api/v1/sweeps", c.spec)
				if code != http.StatusAccepted {
					t.Fatalf("submit: %d: %s", code, data)
				}
				st := decodeStatus(t, data)
				st = waitState(t, ts, st.ID, func(j JobStatus) bool { return j.State == "done" })
				code, cell := get(t, ts, "/api/v1/jobs/"+st.ID+"/cells/0")
				if code != http.StatusOK {
					t.Fatalf("%s fetch %d: %d: %s", c.golden, i+1, code, cell)
				}
				if st.CellsCached != n {
					t.Fatalf("%s fetch %d: cells_cached = %d, want %d", c.golden, i+1, st.CellsCached, n)
				}
				if !bytes.Equal(cell, want) {
					t.Fatalf("%s fetch %d differs from golden (%d vs %d bytes)", c.golden, i+1, len(cell), len(want))
				}
			}
		}
	}

	t.Run("warm-store", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "cache")
		// The first server computes the cells into the store; its
		// subtest's cleanup drains it and releases the writer lock.
		t.Run("cold", func(t *testing.T) { fetchEach(t, dir, 0) })
		fetchEach(t, dir, 1, 1)
	})
	t.Run("fresh-store", func(t *testing.T) {
		fetchEach(t, filepath.Join(t.TempDir(), "fresh"), 0, 1)
	})
}

// TestFleetSweep submits a fleet: true request and checks the result
// carries an assembled fleet report alongside the per-cell values.
func TestFleetSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	code, data := post(t, ts, "/api/v1/sweeps", `{
		"fleet": true,
		"machines": ["t3e", "sx5"],
		"procs": [4, 16],
		"lmax_override": 65536,
		"max_looplength": 2,
		"skip_analysis": true
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	if st.Bench != "beff" {
		t.Errorf("fleet job bench = %q, want beff", st.Bench)
	}
	// t3e takes both ladder rungs, sx5 clamps {4,16} to {4,8}: 4 cells.
	if st.CellsTotal != 4 {
		t.Errorf("cells = %d, want 4", st.CellsTotal)
	}
	waitState(t, ts, st.ID, func(s JobStatus) bool { return s.State == "done" })

	code, data = get(t, ts, "/api/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, data)
	}
	var out struct {
		Cells []cellResult `json:"cells"`
		Fleet *struct {
			ProcsLadder []int `json:"procs_ladder"`
			Machines    []struct {
				Key   string  `json:"key"`
				Procs int     `json:"procs"`
				Beff  float64 `json:"beff"`
			} `json:"machines"`
		} `json:"fleet"`
		FleetError string `json:"fleet_error"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode result: %v\n%s", err, data)
	}
	if out.FleetError != "" {
		t.Fatalf("fleet assembly failed: %s", out.FleetError)
	}
	if out.Fleet == nil || len(out.Fleet.Machines) != 2 {
		t.Fatalf("fleet report malformed: %s", data)
	}
	byKey := map[string]int{}
	for _, m := range out.Fleet.Machines {
		byKey[m.Key] = m.Procs
		if m.Beff <= 0 {
			t.Errorf("%s: non-positive b_eff", m.Key)
		}
	}
	if byKey["t3e"] != 16 || byKey["sx5"] != 8 {
		t.Errorf("headline partitions = %v, want t3e@16 sx5@8 (clamped)", byKey)
	}
	if len(out.Cells) != 4 {
		t.Errorf("result cells = %d, want 4", len(out.Cells))
	}
}

// TestFleetSweepDefaultsToWholeRegistry leaves machines empty: the
// request must expand to every registered profile.
func TestFleetSweepDefaultsToWholeRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 8})
	code, data := post(t, ts, "/api/v1/sweeps", `{
		"fleet": true,
		"procs": [4],
		"lmax_override": 65536,
		"max_looplength": 1,
		"skip_analysis": true
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	if st.CellsTotal < 13 {
		t.Errorf("cells = %d, want one per registered profile (>= 13)", st.CellsTotal)
	}
	waitState(t, ts, st.ID, func(s JobStatus) bool { return s.State == "done" })
	code, data = get(t, ts, "/api/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, data)
	}
	var out struct {
		Fleet *struct {
			Machines []json.RawMessage `json:"machines"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fleet == nil || len(out.Fleet.Machines) != st.CellsTotal {
		t.Errorf("fleet machines = %v, want %d", out.Fleet, st.CellsTotal)
	}
}

// TestFleetSweepValidation pins the fleet-specific request errors.
func TestFleetSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"fleet": true, "bench": "beffio"}`,
		`{"fleet": true, "procs": [1]}`,
		`{"fleet": true, "machines": ["no-such-machine"]}`,
		`{"fleet": true, "perturb": "no-such-preset"}`,
	} {
		code, data := post(t, ts, "/api/v1/sweeps", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, code, data)
		}
		if got := errCode(t, data); got != "invalid_request" {
			t.Errorf("%s: error code %q", body, got)
		}
	}
}
