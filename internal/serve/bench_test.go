package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// BenchmarkWarmResult is one GET /api/v1/jobs/{id}/result of a
// finished golden b_eff job, served by the handler without a socket.
func BenchmarkWarmResult(b *testing.B) {
	s, err := New(Config{Workers: 2, CacheDir: filepath.Join(b.TempDir(), "cache")})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Drain(context.Background()) })
	h := s.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	rec := do("POST", "/api/v1/sweeps", goldenSpec)
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusAccepted || err != nil {
		b.Fatalf("submit: %d %v: %s", rec.Code, err, rec.Body.Bytes())
	}
	path := "/api/v1/jobs/" + st.ID + "/result"
	for deadline := time.Now().Add(60 * time.Second); do("GET", path, "").Code != http.StatusOK; {
		if time.Now().After(deadline) {
			b.Fatalf("job %s never finished", st.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := do("GET", path, ""); rec.Code != http.StatusOK {
			b.Fatalf("result: %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkWarmOp is one whole beffd cache hit as a client sees it, over
// a loopback listener: submit the golden b_eff cell, block on its
// progress stream, fetch /result. The cell is computed once before the
// timer starts, so every timed op is a warm hit.
func BenchmarkWarmOp(b *testing.B) {
	s, err := New(Config{Workers: 2, CacheDir: filepath.Join(b.TempDir(), "cache")})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	do := func(method, path, body string, want int) []byte {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != want {
			b.Fatalf("%s %s: %d %v: %s", method, path, resp.StatusCode, err, data)
		}
		return data
	}
	op := func() {
		var st JobStatus
		if err := json.Unmarshal(do("POST", "/api/v1/sweeps", goldenSpec, http.StatusAccepted), &st); err != nil {
			b.Fatal(err)
		}
		do("GET", "/api/v1/jobs/"+st.ID+"/stream?interval=0s", "", http.StatusOK)
		do("GET", "/api/v1/jobs/"+st.ID+"/result", "", http.StatusOK)
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
