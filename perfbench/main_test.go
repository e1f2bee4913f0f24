package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpcbench/beff/internal/check"
)

func TestDist(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3})
	if d.n() != 5 {
		t.Fatalf("n = %d, want 5", d.n())
	}
	if got := d.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if q1, q3 := d.quartiles(); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	if got := d.percentile(90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := d.beyond(50); got != 2 {
		t.Errorf("samples beyond the median = %d, want 2", got)
	}
	if got := d.max(); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := newDist([]float64{7}).percentile(99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if e := newDist(nil); e.n() != 0 || !math.IsNaN(e.median()) || !math.IsNaN(e.max()) {
		t.Errorf("empty sample: n %d, median %v, max %v; want 0, NaN, NaN", e.n(), e.median(), e.max())
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/hpcbench/beff/internal/des.(*Engine).Run", "main.main"}, "des"},
		// Runtime frames are charged to the repository code that called them.
		{[]string{"runtime.mallocgc", "runtime.newobject", "github.com/hpcbench/beff/internal/mpi.(*Comm).Isend", "main.main"}, "mpi"},
		{[]string{"runtime.chansend1", "github.com/hpcbench/beff/internal/runner.Sweep[...].func1", "runtime.goexit"}, "runner"},
		{[]string{"encoding/json.Marshal", "github.com/hpcbench/beff/internal/serve.writeJSON", "net/http.(*conn).serve"}, "serve"},
		{[]string{"github.com/hpcbench/beff/internal/stats.Mean", "github.com/hpcbench/beff/internal/core.Run"}, "other"},
		{[]string{"net/http.(*Client).Do", "main.(*beffdBench).request"}, "bench"},
		{[]string{"net/http.(*Client).Do", "github.com/hpcbench/beff/perfbench.(*beffdBench).request"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}

	fr := selfFractions([][]string{
		{"github.com/hpcbench/beff/internal/des.(*Engine).Run"},
		{"runtime.mallocgc", "github.com/hpcbench/beff/internal/simnet.(*Net).Send"},
		{"runtime.gcBgMarkWorker"},
	}, []int64{2, 1, 1})
	if fr["des"] != 0.5 || fr["simnet"] != 0.25 || fr["runtime"] != 0.25 {
		t.Errorf("fractions des %v simnet %v runtime %v, want 0.5 0.25 0.25", fr["des"], fr["simnet"], fr["runtime"])
	}
	if len(fr) != len(layers) {
		t.Errorf("%d layers reported, want every one of %d", len(fr), len(layers))
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("%d stacks, %d weights", len(stacks), len(weights))
	}
	var inSpin, total int64
	for i, st := range stacks {
		total += weights[i]
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += weights[i]
				if l := stackLayer(st); l != "bench" {
					t.Errorf("stack through spin charged to %q, want bench", l)
				}
				break
			}
		}
	}
	if inSpin*2 < total {
		t.Errorf("spin holds %d of %d ns of samples, want most", inSpin, total)
	}

	if _, _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at test size, untraced and traced, and
// checks that each run is correct, that BENCHMARK.json and the harness
// name the same workloads and metrics with the same units, and that
// the traced self fractions sum to 1.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	var specWorkloads, harnessWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		harnessWorkloads = append(harnessWorkloads, w.name)
	}
	sort.Strings(specWorkloads)
	sort.Strings(harnessWorkloads)
	if strings.Join(specWorkloads, ",") != strings.Join(harnessWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", specWorkloads, harnessWorkloads)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{seed: 3, root: "..", workdir: t.TempDir(), small: true}
				dur := time.Millisecond
				if traced {
					dur = 400 * time.Millisecond // enough CPU-profile samples
				}
				res, out, err := measure(def, cfg, dur, traced, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced %v: correct %v, %d of %d operations failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(out) == 0 {
					t.Errorf("traced %v: empty output", traced)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("traced %v: result does not encode: %v", traced, err)
				}
				want := e2e
				if traced {
					want = perLayer
				}
				for name, m := range res.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q is not a valid name", name)
					}
					if unit, ok := want[name]; !ok {
						t.Errorf("traced %v: metric %s missing from BENCHMARK.json", traced, name)
					} else if unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("traced %v: BENCHMARK.json metric %s not reported", traced, name)
					}
				}
				if !traced {
					for name, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
					continue
				}
				var sum float64
				for _, l := range layers {
					sum += res.Metrics[l+".self_frac"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("self fractions sum to %v, want 1", sum)
				}
			}
		})
	}
}

func TestBenchmarkJSONNames(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	seen := map[string]bool{}
	valid := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not a valid name", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		valid(w.Name)
	}
	for _, m := range spec.EndToEnd {
		valid(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		valid(m.Name)
	}
}

// TestFleetReportPinned keeps the committed seed-1 fleet report and its
// pinned digest in step.
func TestFleetReportPinned(t *testing.T) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/fleet_cold_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pins["fleet_cold"] {
		t.Errorf("testdata/fleet_cold_seed1.json has sha256 %s, pinned %s", got, pins["fleet_cold"])
	}
	for _, def := range workloads {
		if len(pins[def.name]) != 64 {
			t.Errorf("no pinned digest for %s", def.name)
		}
	}
}

func TestOutputDriftFails(t *testing.T) {
	b := &simBench{audit: func(*check.Checker, any) {}}
	if err := b.check(map[string]int{"beff": 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.check(map[string]int{"beff": 1}); err != nil {
		t.Errorf("identical result rejected: %v", err)
	}
	if err := b.check(map[string]int{"beff": 2}); err == nil {
		t.Error("a result differing from the first operation's passed")
	}
}
