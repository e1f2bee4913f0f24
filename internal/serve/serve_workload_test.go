package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// exampleWorkload loads one of the checked-in example specs as raw
// JSON, ready to embed in a sweep request body.
func exampleWorkload(t *testing.T, file string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "workloads", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestGoldenWorkloadOverHTTP closes the loop of the workload grammar:
// a bench "workload" sweep request carrying an example spec must serve
// cell bytes identical to the golden cell internal/check pinned for
// the same spec on the same machine — the proof that the CLI path
// (cmd/beffio -workload), the direct runner path and the daemon path
// all execute one and the same benchmark.
func TestGoldenWorkloadOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"bench":"workload","machines":["bb"],"procs":[4],"workload":%s}`,
		exampleWorkload(t, "bursty.json"))
	code, data := post(t, ts, "/api/v1/sweeps", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	waitState(t, ts, st.ID, func(s JobStatus) bool { return s.State == "done" })

	code, cell := get(t, ts, "/api/v1/jobs/"+st.ID+"/cells/0")
	if code != http.StatusOK {
		t.Fatalf("cell fetch: status %d: %s", code, cell)
	}
	want, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", "workload_bursty-checkpoint_bb.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cell, want) {
		t.Fatalf("workload cell served over HTTP differs from the golden cell (%d vs %d bytes)", len(cell), len(want))
	}
}

// TestWorkloadCanonicalizationSharesCache pins the fingerprint
// contract at the HTTP layer: two byte-different encodings of the same
// workload (reordered keys, defaults spelled out) land on one cache
// entry — the second job's cell is served cached and byte-identical.
func TestWorkloadCanonicalizationSharesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Request 0 is the cold run; 1 re-encodes the same AST with keys
	// reordered and defaults spelled out.
	bodies := []string{
		`{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"name":"cache-key","phases":[{"name":"p","pattern":{"op":"shared","chunk":65536,"count":4}}]}}`,
		`{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"seed":1,"phases":[{"pattern":{"count":4,"op":"shared","chunk":65536},"name":"p"}],"name":"cache-key"}}`,
	}
	cells := make([][]byte, len(bodies))
	for i, body := range bodies {
		code, data := post(t, ts, "/api/v1/sweeps", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, code, data)
		}
		st := decodeStatus(t, data)
		waitState(t, ts, st.ID, func(s JobStatus) bool { return s.State == "done" })
		code, res := get(t, ts, "/api/v1/jobs/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %d: status %d: %s", i, code, res)
		}
		var jr jobResult
		if err := json.Unmarshal(res, &jr); err != nil {
			t.Fatal(err)
		}
		if len(jr.Cells) != 1 || jr.Cells[0].Error != "" {
			t.Fatalf("job %d: %+v", i, jr.Cells)
		}
		if i > 0 && !jr.Cells[0].Cached {
			t.Fatalf("request %d missed the cache — canonicalization is leaking into the fingerprint", i)
		}
		cells[i] = jr.Cells[0].Result
	}
	for i := 1; i < len(cells); i++ {
		if !bytes.Equal(cells[0], cells[i]) {
			t.Fatalf("equivalent requests produced different results:\n%s\n%s", cells[0], cells[i])
		}
	}
}

// TestWorkloadValidation covers the admission rules of the workload
// field: required for bench "workload", rejected elsewhere, and specs
// are validated — including the table-only fill-up, u and wellformed
// fields — before any cell is admitted.
func TestWorkloadValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"missing spec", `{"bench":"workload","machines":["cluster"],"procs":[2]}`},
		{"spec on wrong bench", `{"bench":"beff","machines":["cluster"],"procs":[2],"workload":{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024}}]}}`},
		{"invalid spec", `{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":-1}}]}}`},
		{"fill-up not runnable", `{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"name":"w","phases":[{"name":"p","pattern":{"op":"segmented","chunk":-1}}]}}`},
		{"u not runnable", `{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024,"count":2,"u":40}}]}}`},
		{"wellformed not runnable", `{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024,"count":2,"wellformed":false}}]}}`},
		{"unknown spec field", `{"bench":"workload","machines":["cluster"],"procs":[2],"workload":{"name":"w","stride":9,"phases":[{"name":"p","pattern":{"op":"shared","chunk":1024}}]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := post(t, ts, "/api/v1/sweeps", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, data)
			}
		})
	}
}
