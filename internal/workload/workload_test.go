package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

const (
	kB = int64(1) << 10
	mB = int64(1) << 20
)

// leaf builds a minimal valid one-leaf spec for validation tests.
func leafSpec(n *Node) *Spec {
	s := &Spec{Name: "t", Phases: []Phase{{Name: "p", Pattern: n}}}
	s.Normalize()
	return s
}

func TestValidateAcceptsCanonicalForms(t *testing.T) {
	cases := []*Node{
		{Op: OpStrided, Chunk: 1 * kB},
		{Op: OpStrided, Chunk: 1 * kB, Mem: 4 * kB},
		{Op: OpShared, Chunk: 32 * kB, Read: true},
		{Op: OpSeparate, Chunk: 1 * mB},
		{Op: OpSegmented, Chunk: 64 * kB, Collective: true},
		{Op: OpSeq, Nodes: []*Node{{Op: OpShared, Chunk: 1 * kB}, {Op: OpSeparate, Chunk: 2 * kB}}},
		{Op: OpRepeat, Count: 3, Body: &Node{Op: OpShared, Chunk: 1 * kB}},
		{Op: OpBursty, Count: 2, Burst: 4, GapMS: 10, Body: &Node{Op: OpStrided, Chunk: 1 * kB}},
		{Op: OpMix, Count: 4, ReadFraction: 0.7, Body: &Node{Op: OpSegmented, Chunk: 1 * kB}},
		{Op: OpZipf, Count: 8, Theta: 1.2, Files: 16, Body: &Node{Op: OpSeparate, Chunk: 1 * kB}},
	}
	for i, n := range cases {
		if err := leafSpec(n).Validate(); err != nil {
			t.Errorf("case %d (%s): unexpected error: %v", i, n.Op, err)
		}
	}
}

func TestValidateRejectsMalformedNodes(t *testing.T) {
	cases := []struct {
		name string
		n    *Node
	}{
		{"unknown op", &Node{Op: "exotic", Chunk: 1}},
		{"chunk missing", &Node{Op: OpShared}},
		{"chunk negative", &Node{Op: OpShared, Chunk: -2}},
		{"chunk too big", &Node{Op: OpShared, Chunk: MaxChunk + 1}},
		{"fill-up chunk", &Node{Op: OpSegmented, Chunk: -1}},
		{"mem on shared", &Node{Op: OpShared, Chunk: 1 * kB, Mem: 2 * kB}},
		{"mem not multiple", &Node{Op: OpStrided, Chunk: 1000, Mem: 2500}},
		{"mem spans too many chunks", &Node{Op: OpStrided, Chunk: 1, Mem: 2 * MaxChunksPerCall}},
		{"collective on shared", &Node{Op: OpShared, Chunk: 1 * kB, Collective: true}},
		{"seq without children", &Node{Op: OpSeq}},
		{"seq with nil child", &Node{Op: OpSeq, Nodes: []*Node{nil}}},
		{"seq with count", &Node{Op: OpSeq, Count: 2, Nodes: []*Node{{Op: OpShared, Chunk: 1}}}},
		{"repeat without body", &Node{Op: OpRepeat, Count: 2}},
		{"repeat count over limit", &Node{Op: OpRepeat, Count: MaxCount + 1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"bursty burst over limit", &Node{Op: OpBursty, Count: 1, Burst: MaxBurst + 1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"bursty gap negative", &Node{Op: OpBursty, Count: 1, GapMS: -1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"bursty gap over limit", &Node{Op: OpBursty, Count: 1, GapMS: MaxGapMS + 1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"mix fraction over 1", &Node{Op: OpMix, Count: 1, ReadFraction: 1.5, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"zipf theta at 1", &Node{Op: OpZipf, Count: 1, Theta: 1, Files: 4, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"zipf theta over limit", &Node{Op: OpZipf, Count: 1, Theta: MaxTheta + 1, Files: 4, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"zipf single file", &Node{Op: OpZipf, Count: 1, Theta: 2, Files: 1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"zipf too many files", &Node{Op: OpZipf, Count: 1, Theta: 2, Files: MaxZipfFiles + 1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"leaf with body", &Node{Op: OpShared, Chunk: 1, Body: &Node{Op: OpShared, Chunk: 1}}},
		{"composite with chunk", &Node{Op: OpRepeat, Count: 1, Chunk: 4, Body: &Node{Op: OpShared, Chunk: 1}}},
	}
	for _, c := range cases {
		if err := leafSpec(c.n).Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestValidateSpecLevelRules(t *testing.T) {
	ok := func() *Spec { return leafSpec(&Node{Op: OpShared, Chunk: 1 * kB}) }

	s := ok()
	s.Name = ""
	if err := s.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	s = ok()
	s.Name = "bad name!"
	if err := s.Validate(); err == nil {
		t.Error("name with invalid characters accepted")
	}
	s = ok()
	s.Phases = nil
	if err := s.Validate(); err == nil {
		t.Error("empty phase list accepted")
	}
	s = ok()
	s.Phases = append(s.Phases, Phase{Name: "p", Pattern: &Node{Op: OpShared, Chunk: 1, Count: 1}})
	if err := s.Validate(); err == nil {
		t.Error("duplicate phase names accepted")
	}
	s = ok()
	s.Seed = 0
	if err := s.Validate(); err == nil {
		t.Error("unnormalized zero seed accepted")
	}

	// Depth and total-op limits.
	deep := &Node{Op: OpShared, Chunk: 1}
	for i := 0; i < MaxDepth+1; i++ {
		deep = &Node{Op: OpRepeat, Count: 1, Body: deep}
	}
	if err := leafSpec(deep).Validate(); err == nil {
		t.Error("over-deep nesting accepted")
	}
	huge := &Node{Op: OpRepeat, Count: MaxCount,
		Body: &Node{Op: OpRepeat, Count: MaxCount, Body: &Node{Op: OpShared, Chunk: 1, Count: 1}}}
	if err := leafSpec(huge).Validate(); err == nil {
		t.Error("op-count explosion accepted")
	}
}

func TestParseStrictness(t *testing.T) {
	valid := `{"name":"x","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024}}]}`
	if _, err := Parse([]byte(valid)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"unknown field":  `{"name":"x","typo":1,"phases":[{"name":"p","pattern":{"op":"shared","chunk":1}}]}`,
		"unknown knob":   `{"name":"x","phases":[{"name":"p","pattern":{"op":"shared","chunk":1,"stride":9}}]}`,
		"trailing data":  valid + `{"more":true}`,
		"not json":       `op: shared`,
		"net negative":   `{"name":"x","phases":[{"name":"p","pattern":{"op":"shared","chunk":-4}}]}`,
		"missing phases": `{"name":"x"}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

// TestParseCanonicalizes pins the cache-key property: two byte-different
// encodings of the same workload parse to identical canonical JSON.
func TestParseCanonicalizes(t *testing.T) {
	a, err := Parse([]byte(`{"name":"x","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{"phases":[{"pattern":{"count":1,"chunk":1024,"op":"shared"},"name":"p"}],"seed":1,"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("canonical forms differ:\n%s\n%s", aj, bj)
	}
}

func TestRunRejectsFillUpLeaves(t *testing.T) {
	s := leafSpec(&Node{Op: OpSegmented, Chunk: -1})
	if _, err := Run(testWorld(t, 2), testFS(t), s); err == nil {
		t.Fatal("fill-up leaf executed, want error")
	}
}

// TestParseRejectsTableOnlyFields: the paper's Table 2 is built in
// internal/beffio, so its time units (u), wellformed flags and fill-up
// chunk (-1) are not part of the grammar; a spec carrying one is
// rejected at Parse instead of silently ignored.
func TestParseRejectsTableOnlyFields(t *testing.T) {
	for _, js := range []string{
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024,"count":2,"u":40}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"shared","chunk":1024,"count":2,"wellformed":false}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"repeat","body":{"op":"separate","chunk":1024,"wellformed":true}}}]}`,
		`{"name":"w","phases":[{"name":"p","pattern":{"op":"segmented","chunk":-1}}]}`,
	} {
		if _, err := Parse([]byte(js)); err == nil {
			t.Errorf("%s: Parse accepted a table-only field", js)
		}
	}
}
