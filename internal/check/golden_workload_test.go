package check_test

import (
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/workload"
)

// The modern-machine and workload-grammar extensions get their own
// golden cells, separate from goldenMachines: the paper-era corpus
// stays byte-identical while the burst-buffer tier, the dragonfly
// fabric and the three canonical custom scenarios are each pinned.

// TestGoldenModernMachines pins the two post-paper machine models on
// both benchmarks: the dragonfly fabric end to end under b_eff, and
// the burst-buffer filesystem tier under b_eff_io (where its
// write-absorption actually shows).
func TestGoldenModernMachines(t *testing.T) {
	t.Run("beff_dragonfly", func(t *testing.T) {
		p, err := machine.Lookup("dragonfly")
		if err != nil {
			t.Fatal(err)
		}
		w, err := p.BuildWorld(8)
		if err != nil {
			t.Fatal(err)
		}
		c := check.New()
		c.WatchWorld(&w)
		c.WatchNet(w.Net)
		res, err := core.Run(w, goldenBeffOptions())
		if err != nil {
			t.Fatal(err)
		}
		c.VerifyBeff(res)
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, "beff_dragonfly.json", res)
	})
	t.Run("beffio_bb", func(t *testing.T) {
		p, err := machine.Lookup("bb")
		if err != nil {
			t.Fatal(err)
		}
		w, err := p.BuildIOWorld(4)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := p.BuildFS()
		if err != nil {
			t.Fatal(err)
		}
		c := check.New()
		c.WatchWorld(&w)
		c.WatchNet(w.Net)
		c.WatchFS(fs)
		res, err := beffio.Run(w, fs, beffio.Options{T: des.DurationOf(0.5), MPart: p.MPart()})
		if err != nil {
			t.Fatal(err)
		}
		c.VerifyBeffIO(res)
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, "beffio_bb.json", res)
	})
}

// goldenWorkloads maps the checked-in example specs to the machine
// each is pinned on: the bursty checkpoint and the Zipf-hot reread
// exercise the burst-buffer tier, the mixed-ratio analysis runs on
// the dragonfly system. The same three cells are reachable through
// cmd/beffio -workload and a beffd sweep request; the HTTP variant is
// pinned against these same files in internal/serve.
var goldenWorkloads = []struct {
	file, machine string
	procs         int
}{
	{"bursty.json", "bb", 4},
	{"mixed.json", "dragonfly", 4},
	{"zipf-hot.json", "bb", 4},
}

// TestGoldenWorkloads runs each example spec under the full invariant
// watch set and pins the result. The specs are parsed from
// examples/workloads/ — the files the docs point at — so a drifting
// example breaks the corpus, not just the prose.
func TestGoldenWorkloads(t *testing.T) {
	for _, tc := range goldenWorkloads {
		t.Run(tc.file, func(t *testing.T) {
			spec, err := workload.ParseFile(filepath.Join("..", "..", "examples", "workloads", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			p, err := machine.Lookup(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			w, err := p.BuildIOWorld(tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := p.BuildFS()
			if err != nil {
				t.Fatal(err)
			}
			c := check.New()
			c.WatchWorld(&w)
			c.WatchNet(w.Net)
			c.WatchFS(fs)
			res, err := workload.Run(w, fs, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "workload_"+spec.Name+"_"+tc.machine+".json", res)
		})
	}
}

// leavesSpec drives every leaf shape — strided, shared, separate,
// segmented and collective segmented — through each region policy of
// the streaming executor: a fresh write, a pure read wrapping over the
// written extent, a re-read under repeat, a seeded read/write mix, and
// zipf-selected files whose first reads find nothing written.
const leavesSpec = `{"name": "leaves", "seed": 5, "phases": [
	{"name": "write", "pattern": {"op": "seq", "nodes": [
		{"op": "strided", "count": 3, "chunk": 4096, "mem": 16384},
		{"op": "shared", "count": 3, "chunk": 8192},
		{"op": "separate", "count": 3, "chunk": 8192},
		{"op": "segmented", "count": 3, "chunk": 8192},
		{"op": "segmented", "count": 3, "chunk": 8192, "collective": true}]}},
	{"name": "read", "pattern": {"op": "seq", "nodes": [
		{"op": "strided", "count": 4, "chunk": 4096, "mem": 16384, "read": true},
		{"op": "shared", "count": 4, "chunk": 8192, "read": true},
		{"op": "separate", "count": 4, "chunk": 8192, "read": true},
		{"op": "segmented", "count": 4, "chunk": 8192, "read": true},
		{"op": "segmented", "count": 4, "chunk": 8192, "collective": true, "read": true}]}},
	{"name": "reread", "pattern": {"op": "repeat", "count": 2, "body": {"op": "seq", "nodes": [
		{"op": "strided", "count": 2, "chunk": 4096, "read": true},
		{"op": "shared", "count": 2, "chunk": 16384, "read": true},
		{"op": "separate", "count": 2, "chunk": 4096, "read": true},
		{"op": "segmented", "count": 2, "chunk": 16384, "read": true},
		{"op": "segmented", "count": 2, "chunk": 4096, "collective": true, "read": true}]}}},
	{"name": "mix", "pattern": {"op": "mix", "count": 2, "read_fraction": 0.5, "body": {"op": "seq", "nodes": [
		{"op": "strided", "count": 3, "chunk": 4096, "mem": 8192},
		{"op": "shared", "count": 3, "chunk": 8192},
		{"op": "separate", "count": 3, "chunk": 8192},
		{"op": "segmented", "count": 3, "chunk": 8192},
		{"op": "segmented", "count": 3, "chunk": 8192, "collective": true}]}}},
	{"name": "zipf", "pattern": {"op": "zipf", "count": 4, "theta": 1.5, "files": 3, "body": {"op": "seq", "nodes": [
		{"op": "strided", "count": 2, "chunk": 4096, "mem": 8192, "read": true},
		{"op": "shared", "count": 2, "chunk": 8192, "read": true},
		{"op": "separate", "count": 2, "chunk": 8192, "read": true},
		{"op": "segmented", "count": 2, "chunk": 8192, "read": true},
		{"op": "segmented", "count": 2, "chunk": 8192, "collective": true, "read": true},
		{"op": "strided", "count": 2, "chunk": 4096, "mem": 8192},
		{"op": "shared", "count": 2, "chunk": 8192},
		{"op": "separate", "count": 2, "chunk": 8192},
		{"op": "segmented", "count": 2, "chunk": 8192},
		{"op": "segmented", "count": 2, "chunk": 8192, "collective": true}]}}}
]}`

// TestGoldenWorkloadLeaves pins leavesSpec on the burst-buffer system
// at three ranks, so every leaf's view, seek and wrap arithmetic is
// fixed byte for byte.
func TestGoldenWorkloadLeaves(t *testing.T) {
	spec, err := workload.Parse([]byte(leavesSpec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := machine.Lookup("bb")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.BuildIOWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := p.BuildFS()
	if err != nil {
		t.Fatal(err)
	}
	c := check.New()
	c.WatchWorld(&w)
	c.WatchNet(w.Net)
	c.WatchFS(fs)
	res, err := workload.Run(w, fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "workload_leaves_bb.json", res)
}
