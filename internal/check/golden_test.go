package check_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/runner"
)

// The golden-corpus regression harness: full benchmark outputs for
// canonical machine configurations are pinned byte-exactly under
// testdata/golden/. The simulator is deterministic, so any refactor
// that shifts a single number — a reduction reordered, a resource
// model nudged, an off-by-one in the schedule — fails these tests
// immediately instead of silently drifting the paper reproduction.
//
// To bless intended changes, regenerate the corpus:
//
//	go test ./internal/check/ -run Golden -update

var update = flag.Bool("update", false, "rewrite testdata/golden from current outputs")

const goldenDir = "testdata/golden"

// goldenMachines are the canonical configs: the paper's two main
// systems (Cray T3E, IBM SP) plus the generic commodity cluster.
var goldenMachines = []string{"t3e", "sp", "cluster"}

func goldenCompare(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — generate it with: go test ./internal/check/ -run Golden -update (%v)", path, err)
	}
	if !bytes.Equal(want, data) {
		t.Fatalf("%s drifted from the golden corpus (first difference at byte %d, got %d bytes, want %d).\n"+
			"If the change is intended, regenerate with:\n  go test ./internal/check/ -run Golden -update",
			name, firstDiff(want, data), len(data), len(want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// goldenBeffOptions keeps the corpus cheap: the small looplength cap
// exercises the identical control flow at a fraction of the event
// count, and the fixed L_max override decouples the corpus from any
// future change to a profile's memory size.
func goldenBeffOptions() core.Options {
	return core.Options{LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, Seed: 1}
}

func TestGoldenBeff(t *testing.T) {
	for _, key := range goldenMachines {
		t.Run(key, func(t *testing.T) {
			p, err := machine.Lookup(key)
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
			goldenCompare(t, "beff_"+key+".json", res)
		})
	}
}

// TestGoldenBeffOddHalf pins b_eff with the analysis patterns on t3e at
// 6 processes, a size whose half is odd, so the bisection quarter swap
// leaves a rank idle; the other cells all have an even half.
func TestGoldenBeffOddHalf(t *testing.T) {
	p, err := machine.Lookup("t3e")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.BuildWorld(6)
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
	goldenCompare(t, "beff_t3e_6.json", res)
}

func TestGoldenBeffIO(t *testing.T) {
	for _, key := range goldenMachines {
		t.Run(key, func(t *testing.T) {
			p, err := machine.Lookup(key)
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
			goldenCompare(t, "beffio_"+key+".json", res)
		})
	}
}

func TestGoldenRobustness(t *testing.T) {
	prof, err := perturb.Load("stormy")
	if err != nil {
		t.Fatal(err)
	}
	const reps = 3
	for _, key := range goldenMachines {
		t.Run(key, func(t *testing.T) {
			c := check.New()
			values := make([]float64, 0, reps)
			for rep := 0; rep < reps; rep++ {
				cell := runner.RobustBeffCell(key, 4, goldenBeffOptions(), prof, 1, rep)
				res, err := cell.Run()
				if err != nil {
					t.Fatal(err)
				}
				c.VerifyBeff(res)
				values = append(values, res.Beff)
			}
			rob := runner.SummarizeReps(values)
			c.VerifyRobustness(rob)
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "robustness_"+key+".json", rob)
		})
	}
}

// TestGoldenPatternTable pins the b_eff_io pattern table itself: the
// scheduling quota is part of the benchmark's definition, not an
// implementation detail. Two M_PARTs are pinned: the 2 MB floor, and
// the 3 MB of a machine with 384 MB per process on one-process nodes,
// where the M_PART rows are not a power of two yet stay wellformed.
func TestGoldenPatternTable(t *testing.T) {
	for _, c := range []struct {
		name  string
		mpart int64
	}{
		{"patterntable_2mb.json", 2 << 20},
		{"patterntable_3mb.json", (&machine.Profile{MemoryPerProc: 384 << 20, SMPNodeSize: 1}).MPart()},
	} {
		t.Run(c.name, func(t *testing.T) {
			pats := beffio.Table2(c.mpart)
			chk := check.New()
			chk.VerifyPatternTable(pats)
			if err := chk.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, c.name, pats)
		})
	}
}

// goldenBeffIOOptionCells pins the b_eff_io option paths the default
// cells never take: §5.4 geometric batching; a skipped segmented type
// with the §6 random-access extension; and two-phase buffering off
// under a repetition cap. Three ranks keep every per-rank split
// uneven.
var goldenBeffIOOptionCells = []struct {
	name string
	opt  beffio.Options
}{
	{"geometric", beffio.Options{GeometricBatching: true}},
	{"skip3_random", beffio.Options{SkipTypes: []beffio.PatternType{beffio.Segmented}, MeasureRandomAccess: true, Seed: 7}},
	{"nocb_reps3", beffio.Options{Info: mpiio.Info{NoCollectiveBuffering: true}, MaxRepsPerPattern: 3}},
}

func TestGoldenBeffIOOptions(t *testing.T) {
	p, err := machine.Lookup("t3e")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenBeffIOOptionCells {
		t.Run(tc.name, func(t *testing.T) {
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
			opt := tc.opt
			opt.T, opt.MPart = des.DurationOf(0.5), p.MPart()
			res, err := beffio.Run(w, fs, opt)
			if err != nil {
				t.Fatal(err)
			}
			c.VerifyBeffIO(res)
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "beffio_"+tc.name+"_t3e.json", res)
		})
	}
}
