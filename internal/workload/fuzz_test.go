package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseWorkload hammers the strict parser: arbitrary bytes must
// either fail cleanly or produce a validated, bounded spec whose
// canonical JSON is a fixed point of Parse. No input may panic, and
// the size/depth bounds guarantee no accepted spec can explode the
// executor.
func FuzzParseWorkload(f *testing.F) {
	// Seed corpus: the Table-2 encoding at two M_PART values plus one
	// spec per grammar construct and a few near-miss invalids.
	for _, mpart := range []int64{2 << 20, 32 << 20} {
		j, err := json.Marshal(Table2Spec(mpart))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(j)
	}
	for _, s := range []string{
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"strided","count":2,"chunk":1024,"mem":4096}}]}`,
		`{"name":"w","seed":7,"phases":[{"name":"p","pattern":{"op":"bursty","count":2,"burst":3,"gap_ms":5,"body":{"op":"shared","count":2,"chunk":32768}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"mix","count":4,"read_fraction":0.5,"body":{"op":"segmented","count":2,"chunk":16384,"collective":true}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"zipf","count":8,"theta":1.3,"files":16,"body":{"op":"separate","count":1,"chunk":8192}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"repeat","count":3,"body":{"op":"seq","nodes":[{"op":"shared","chunk":1024},{"op":"separate","chunk":2048}]}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"segmented","chunk":-1}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":0}}]}`,
		`{"name":"","phases":[]}`,
		`not json at all`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted specs are canonical and validated.
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid spec: %v", err)
		}
		if s.Seed < 1 {
			t.Fatalf("unnormalized seed %d survived Parse", s.Seed)
		}
		for _, ph := range s.Phases {
			if est := opsEstimate(ph.Pattern); est > int64(MaxTotalOps) {
				t.Fatalf("phase %q op estimate %d exceeds bound %d", ph.Name, est, MaxTotalOps)
			}
		}
		// Canonical JSON is a Parse fixed point.
		j, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		s2, err := Parse(j)
		if err != nil {
			t.Fatalf("canonical JSON rejected on re-parse: %v\n%s", err, j)
		}
		j2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j, j2) {
			t.Fatalf("canonical JSON not a fixed point:\n%s\n%s", j, j2)
		}
	})
}

// FuzzRunWorkload holds the executor to the promise Validate makes:
// any accepted, runnable spec executes without panicking or failing,
// and two runs of it produce byte-identical results. Specs are capped
// at 256 leaf operations so each input simulates quickly.
func FuzzRunWorkload(f *testing.F) {
	for _, s := range []string{
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"strided","count":2,"chunk":1024,"mem":4096}}]}`,
		`{"name":"w","seed":7,"phases":[{"name":"p","pattern":{"op":"bursty","count":2,"burst":3,"gap_ms":5,"body":{"op":"shared","count":2,"chunk":32768}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"mix","count":4,"read_fraction":0.5,"body":{"op":"segmented","count":2,"chunk":16384,"collective":true}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"zipf","count":8,"theta":1.3,"files":16,"body":{"op":"separate","count":1,"chunk":8192,"read":true}}}]}`,
		`{"name":"w","phases":[{"name":"a","pattern":{"op":"segmented","count":3,"chunk":4096}},{"name":"b","pattern":{"op":"repeat","count":2,"body":{"op":"seq","nodes":[{"op":"segmented","count":5,"chunk":4096,"read":true},{"op":"shared","chunk":100,"read":true}]}}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || s.Runnable() != nil {
			return
		}
		var ops int64
		for _, ph := range s.Phases {
			ops += opsEstimate(ph.Pattern)
		}
		if ops > 256 {
			return
		}
		run := func() []byte {
			res, err := Run(testWorld(t, 2), testFS(t), s)
			if err != nil {
				t.Fatalf("accepted spec failed to run: %v\n%s", err, data)
			}
			j, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		if a, b := run(), run(); !bytes.Equal(a, b) {
			t.Fatalf("two runs differ:\n%s\n%s", a, b)
		}
	})
}
