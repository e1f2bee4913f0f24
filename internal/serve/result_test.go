package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Differential tests of jobResult.encode, the hand-written /result
// body: it must be byte-identical to writeJSON's encoding of the same
// jobResult, on every kind of job and on strings that need escaping.

// encoderBody is writeJSON's body for v.
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// sameAsEncoder checks encode against writeJSON on r, and that the body
// was built at its exact size.
func sameAsEncoder(t *testing.T, name string, r jobResult) {
	t.Helper()
	got, err := r.encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if want := encoderBody(t, r); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from writeJSON's at byte %d:\n%s\nwant\n%s", name, firstDiff(got, want), got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: body has cap %d, len %d", name, cap(got), len(got))
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestResultBodyMatchesEncoder runs real jobs of every kind — b_eff
// computed and cached, b_eff_io, a workload spec, a fleet, a canceled
// cell and a fleet whose report cannot be assembled — and compares each
// GET /result body with writeJSON of the job's jobResult.
func TestResultBodyMatchesEncoder(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	submit := func(spec string) string {
		t.Helper()
		code, data := post(t, ts, "/api/v1/sweeps", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d: %s", spec, code, data)
		}
		return decodeStatus(t, data).ID
	}
	const fleetSpec = `{"fleet":true,"machines":["t3e","sx5"],"procs":[4],"lmax_override":1024,"max_looplength":1,"skip_analysis":true}`
	ids := map[string]string{}

	// Canceled first, while blockers hold both workers.
	release := blockPoolWorkers(t, s, 2)
	ids["canceled cell"] = submit(quickSpec)
	ids["fleet with a canceled cell"] = submit(fleetSpec)
	for _, name := range []string{"canceled cell", "fleet with a canceled cell"} {
		if code, data := del(t, ts, "/api/v1/jobs/"+ids[name]); code != http.StatusOK {
			t.Fatalf("cancel %s: %d: %s", name, code, data)
		}
	}
	release()

	ids["beff"] = submit(quickSpec)
	waitState(t, ts, ids["beff"], func(s JobStatus) bool { return s.State == "done" })
	ids["beff cached"] = submit(quickSpec)
	ids["beffio"] = submit(goldenIOSpec)
	ids["workload"] = submit(fmt.Sprintf(`{"bench":"workload","machines":["bb"],"procs":[4],"workload":%s}`,
		exampleWorkload(t, "bursty.json")))
	ids["fleet"] = submit(fleetSpec)

	for name, id := range ids {
		st := waitState(t, ts, id, func(s JobStatus) bool { return s.State == "done" || s.State == "canceled" })
		code, got := get(t, ts, "/api/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("%s: result: %d: %s", name, code, got)
		}
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		r := j.result()
		if want := encoderBody(t, r); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET /result differs from writeJSON's at byte %d:\n%s\nwant\n%s", name, firstDiff(got, want), got, want)
		}
		sameAsEncoder(t, name, r)
		switch name {
		case "beff cached":
			if !r.Cells[0].Cached {
				t.Errorf("%s: cell not served from the cache", name)
			}
		case "canceled cell":
			if st.State != "canceled" || r.Cells[0].Error != "canceled" {
				t.Errorf("%s: state %s, cell error %q", name, st.State, r.Cells[0].Error)
			}
		case "fleet":
			if r.Fleet == nil {
				t.Errorf("%s: no fleet report: %s", name, r.FleetError)
			}
		case "fleet with a canceled cell":
			if r.FleetError == "" {
				t.Errorf("%s: no fleet_error", name)
			}
		}
	}
}

// TestResultBodyEscapes compares encode with writeJSON on hand-made
// bodies: failed, canceled, cached and deduped cells, keys, names and
// errors that need JSON escaping, and results of every JSON shape.
func TestResultBodyEscapes(t *testing.T) {
	value := func(v any) json.RawMessage {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}
	awkward := "q\"uote\\ <tag> & amp \u2028\u2029 é 日本 \x01\t\n \xff"
	nested := value(map[string]any{
		"a": []any{1, 2.5, []any{}, map[string]any{}, nil, true},
		"b": map[string]any{"deep": map[string]any{"deeper": []any{"x", awkward}}},
		"c": awkward,
	})
	cases := map[string]jobResult{
		"escaping": {
			ID: "j\"1<>", Bench: awkward,
			Cells: []cellResult{
				{Index: 0, Key: awkward, Cached: true, Deduped: true, Result: nested},
				{Index: 1, Key: "machine/é<8>", Error: "cell " + awkward + ": panic: boom"},
				{Index: 2, Key: "t3e/4", Error: "canceled"},
				{Index: 3, Key: "dedup", Deduped: true, Result: value(3.25)},
			},
			FleetError: "cell 2 (" + awkward + ") canceled",
		},
		"scalars and empties": {
			ID: "j2", Bench: "beff",
			Cells: []cellResult{
				{Index: 0, Key: "num", Result: value(42)},
				{Index: 1, Key: "str", Result: value(awkward)},
				{Index: 2, Key: "null", Result: value(nil)},
				{Index: 3, Key: "empty object", Result: value(map[string]any{})},
				{Index: 4, Key: "empty array", Result: value([]int{})},
				{Index: 5, Key: "array", Result: value([][]int{{1, 2}, {}, {3}})},
			},
		},
		"no cells":    {ID: "j3", Bench: "beffio"},
		"empty cells": {ID: "j4", Bench: "workload", Cells: []cellResult{}},
		"all failed": {
			ID: "j5", Bench: "beff",
			Cells: []cellResult{{Index: 0, Key: "a", Error: "x"}, {Index: 1, Key: "b", Error: "canceled"}},
		},
	}
	for name, r := range cases {
		sameAsEncoder(t, name, r)
	}
}
