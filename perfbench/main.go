// Command perfbench measures the host time the simulator costs on four
// workloads that stress different layers, checks every output it
// produces, and prints its metrics, one "name value unit" line each,
// followed by the same data as one JSON object on the last line of
// stdout:
//
//	perfbench --workload beff_t3e64 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced and a traced half, and the metrics
// are the per-layer ones of the traced half plus the tracing overhead.
// BENCHMARK.json at the repository root lists every workload and
// metric with its unit and regression bound; README.md explains them.
//
// perfbench is a stopgap beside cmd/bench: both time b_eff through
// core.Run, and both read the peak resident set. It is meant to become
// a -workload mode of cmd/bench and then be deleted; until then it
// should not take over more of what cmd/bench does.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/hpcbench/beff/internal/obs"
)

// config is what every workload is built from.
type config struct {
	seed    int64
	root    string // repository root; examples/workloads is read below it
	workdir string // scratch caches and stores go below it
	small   bool   // test-sized inputs and set-up batches for the smoke test; never pinned
}

// bench is one workload's live state inside a run.
type bench interface {
	// setup does the work a user pays before operations can start, and
	// returns how long that took. Tearing down the previous set-up, if
	// any, is not part of it.
	setup() (time.Duration, error)
	// warmUp does untimed work that fills lazy state: at least one
	// operation.
	warmUp(t *tally) error
	// run performs operations until the deadline has passed, at least
	// one. tr is nil in the untraced half.
	run(until time.Time, tr *tracer, t *tally) error
	// output is the canonical output of the workload: every operation on
	// the same inputs must reproduce it byte for byte.
	output() []byte
	close() error
}

type workloadDef struct {
	name string
	// pinAllSeeds marks a workload whose pinned output does not depend on
	// the seed, so it is checked against the pin on every seed; the
	// others are checked on seed 1 only.
	pinAllSeeds bool
	// oneP runs the workload with GOMAXPROCS 1. The sequential engine
	// hands control between one goroutine per rank; with a second P
	// idle, the runtime's wake-ups of it moved b_eff's median operation
	// time by up to a third between otherwise identical runs.
	oneP bool
	open func(cfg config) (bench, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json gives the
// reason for each.
var workloads = []workloadDef{
	{name: "beff_t3e64", oneP: true, open: openBeff},
	{name: "beffio_t3e16", pinAllSeeds: true, oneP: true, open: openBeffIO},
	{name: "fleet_cold", open: openFleet},
	{name: "beffd_mixed", pinAllSeeds: true, open: openBeffd},
}

// setup_s is the median of setupBatches samples taken after the
// warm-up. One sample is the mean set-up time of a batch of set-ups
// that together take at least setupBatch: a single world build or cache
// open takes tens of microseconds, too short to time steadily on its
// own, and a batch this long lets the median ride out a moment in
// which the host runs slow.
const (
	setupBatches = 9
	setupBatch   = 200 * time.Millisecond
)

// tally collects one phase's measurements. The service workload's
// clients record into it concurrently.
type tally struct {
	mu         sync.Mutex
	setup      []float64 // seconds per set-up, one mean per batch
	setups     int       // set-ups timed
	ops        []float64 // milliseconds per operation
	attempted  int
	failed     int
	stragglers []float64 // per sweep: slowest computed cell over the median one
}

// maxReasons bounds the failure reasons printed per run.
const maxReasons = 10

// addOp records one attempted operation that took d; a non-nil err
// counts it as failed and is reported on stderr.
func (t *tally) addOp(d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = append(t.ops, float64(d)/float64(time.Millisecond))
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= maxReasons {
			fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		}
	}
}

// tracer records spans around the benchmark's calls into a layer, and
// owns the registry the layers' instruments count into during the
// traced half. A nil tracer records nothing.
type tracer struct {
	reg   *obs.Registry
	mu    sync.Mutex
	spans []span
}

type span struct {
	name string
	dur  time.Duration
}

func (tr *tracer) end(name string, start time.Time) {
	if tr == nil {
		return
	}
	d := time.Since(start)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name, d})
	tr.mu.Unlock()
}

// total is the summed duration of every span of that name, in ms.
func (tr *tracer) total(name string) float64 {
	var d time.Duration
	for _, s := range tr.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return float64(d) / float64(time.Millisecond)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

//go:embed testdata/pins.json
var pinsJSON []byte

// pinsPath is where --pin writes, relative to the repository root.
const pinsPath = "perfbench/testdata/pins.json"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from (>= 1)")
		seconds = flag.Float64("seconds", 15, "length of the timed section in seconds")
		trace   = flag.Int("trace", 0, "1 adds a traced half and reports per-layer metrics instead of end-to-end ones")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch caches and stores")
		pin     = flag.Bool("pin", false, "record this run's output digest in "+pinsPath+" (seed 1, run from the repository root)")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	switch {
	case def == nil:
		usage("unknown workload %q", *name)
	case *seed < 1:
		usage("--seed must be >= 1, got %d", *seed)
	case *seconds <= 0:
		usage("--seconds must be positive, got %v", *seconds)
	case *trace != 0 && *trace != 1:
		usage("--trace must be 0 or 1, got %d", *trace)
	case *pin && *seed != 1:
		usage("--pin records seed-1 outputs, got --seed %d", *seed)
	}
	cfg := config{
		seed:    *seed,
		root:    ".",
		workdir: filepath.Join(*workdir, fmt.Sprintf("work-%s-%d", *name, os.Getpid())),
	}
	dur := time.Duration(*seconds * float64(time.Second))
	res, out, err := measure(*def, cfg, dur, *trace == 1, os.Stdout)
	if rmErr := os.RemoveAll(cfg.workdir); err == nil {
		err = rmErr
	}
	if err == nil && *pin {
		err = writePin(def.name, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// measure runs one workload: set-up, warm-up, the timed section (split
// into an untraced and a traced half when traced), then the output
// checks. It prints the human-readable metric lines to w and returns
// the result object with the workload's canonical output.
func measure(def workloadDef, cfg config, dur time.Duration, traced bool, w io.Writer) (*result, []byte, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	if def.oneP {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	b, err := def.open(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()

	// Set-up is timed after the warm-up, so that it pays no first-use
	// cost of code paths or file caches.
	var warm, plain, trc tally
	if _, err := b.setup(); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	if err := b.warmUp(&warm); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	batch := setupBatch
	if cfg.small {
		batch = time.Millisecond
	}
	runtime.GC()
	for i := 0; i < setupBatches; i++ {
		var sum time.Duration
		n := 0
		for sum < batch {
			d, err := b.setup()
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			sum += d
			n++
		}
		plain.setup = append(plain.setup, sum.Seconds()/float64(n))
		plain.setups += n
	}

	half := dur
	if traced {
		half = dur / 2
	}
	runtime.GC()
	start := time.Now()
	if err := b.run(start.Add(half), nil, &plain); err != nil {
		return nil, nil, err
	}
	wall := time.Since(start)

	var tr *tracer
	var fracs map[string]float64
	var mem0, mem1 runtime.MemStats
	if traced {
		runtime.GC()
		tr = &tracer{reg: obs.New()}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&mem0)
		err := b.run(time.Now().Add(half), tr, &trc)
		runtime.ReadMemStats(&mem1)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, nil, err
		}
		stacks, weights, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		fracs = selfFractions(stacks, weights)
	}

	res := &result{}
	for _, t := range []*tally{&warm, &plain, &trc} {
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	fmt.Fprintf(w, "workload %s seed %d timed %.1fs trace %v GOMAXPROCS %d\n", def.name, cfg.seed, dur.Seconds(), traced, runtime.GOMAXPROCS(0))
	if def.pinAllSeeds {
		fmt.Fprintf(w, "note: the checked output of %s does not depend on the seed\n", def.name)
	}
	fmt.Fprintf(w, "operations %d attempted, %d failed (fail_frac %.4g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))

	out := b.output()
	pinned := !cfg.small && (cfg.seed == 1 || def.pinAllSeeds)
	pinOK := true
	if pinned {
		var pins map[string]string
		if err := json.Unmarshal(pinsJSON, &pins); err != nil {
			return nil, nil, fmt.Errorf("pins: %w", err)
		}
		got := digest(out)
		pinOK = pins[def.name] == got
		fmt.Fprintf(w, "output sha256 %s (pinned %s: %v)\n", got, pins[def.name], pinOK)
	}
	res.Correct = res.Failed == 0 && pinOK

	if traced {
		res.Metrics = layerMetrics(&plain, &trc, tr, fracs, &mem0, &mem1)
	} else {
		sd, od := newDist(plain.setup), newDist(plain.ops)
		q1, q3 := sd.quartiles()
		fmt.Fprintf(w, "set-ups: %d in n=%d batches, q1=%.6g q3=%.6g s\n", plain.setups, sd.n(), q1, q3)
		q1, q3 = od.quartiles()
		fmt.Fprintf(w, "operations: n=%d q1=%.6g q3=%.6g p99=%.6g ms; %d above p95, %d above p99\n",
			od.n(), q1, q3, od.percentile(99), od.beyond(95), od.beyond(99))
		res.Metrics = map[string]metric{
			"setup_s":     {sd.median(), "s"},
			"op_ms_p50":   {od.median(), "ms"},
			"op_ms_p95":   {od.percentile(95), "ms"},
			"ops_per_s":   {float64(od.n()) / wall.Seconds(), "1/s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, out, nil
}

// layerMetrics derives the per-layer metrics of the traced half.
// Counts are per operation, so they compare across run lengths; every
// metric is present on every workload, zero where the workload does
// not exercise that layer.
func layerMetrics(plain, trc *tally, tr *tracer, fracs map[string]float64, mem0, mem1 *runtime.MemStats) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	snap := tr.reg.Snapshot()
	get := func(names ...string) float64 {
		var v float64
		for _, n := range names {
			if s, ok := snap.Get(n); ok {
				v += s.Value
			}
		}
		return v
	}
	ops := float64(len(trc.ops))
	per := func(v float64) float64 { return ratio(v, ops) }
	var opMS float64
	for _, d := range trc.ops {
		opMS += d
	}

	for _, l := range layers {
		set(l+".self_frac", fracs[l], "frac")
	}

	set("des.dispatches", per(get("des_dispatches_total")), "count/op")
	set("des.fast_advance_frac", ratio(get("des_fast_advances_total"), get("des_clock_advances_total")), "frac")
	set("des.heap_depth_max", get("des_heap_depth_max"), "count")

	transfers := get("simnet_transfers_total")
	set("simnet.transfers", per(transfers), "count/op")
	set("simnet.queued_frac", ratio(get("simnet_queued_transfers_total"), transfers), "frac")
	set("simnet.route_cache_hit_frac", ratio(get("simnet_route_cache_hits_total"),
		get("simnet_route_cache_hits_total", "simnet_route_cache_misses_total")), "frac")

	msgs := get("mpi_eager_messages_total", "mpi_rendezvous_messages_total")
	poolHits := get("mpi_msg_pool_hits_total", "mpi_req_pool_hits_total", "mpi_buf_pool_hits_total")
	poolAll := poolHits + get("mpi_msg_pool_misses_total", "mpi_req_pool_misses_total", "mpi_buf_pool_misses_total")
	set("mpi.messages", per(msgs), "count/op")
	set("mpi.msgs_per_ms", ratio(msgs, opMS), "1/ms")
	set("mpi.allocs_per_msg", ratio(float64(mem1.Mallocs-mem0.Mallocs), msgs), "count")
	set("mpi.pool_hit_frac", ratio(poolHits, poolAll), "frac")
	set("mpi.unexpected_frac", ratio(get("mpi_matches_unexpected_total"),
		get("mpi_matches_unexpected_total", "mpi_matches_posted_total")), "frac")
	set("mpi.rendezvous_frac", ratio(get("mpi_rendezvous_messages_total"), msgs), "frac")

	diskOps, cacheHits := get("simfs_server_ops_total"), get("simfs_cache_hits_total")
	set("simfs.server_ops", per(diskOps), "count/op")
	set("simfs.ops_per_ms", ratio(diskOps, opMS), "1/ms")
	set("simfs.cache_hit_frac", ratio(cacheHits, cacheHits+diskOps), "frac")
	set("mpiio.collective_ops", per(get("mpiio_collective_ops_total")), "count/op")
	set("mpiio.shuffle_mb", per(get("mpiio_shuffle_bytes_total"))/1e6, "MB/op")

	cells := get("runner_cells_done_total", "beffd_cells_done_total")
	set("runner.cells", per(cells), "count/op")
	set("runner.cache_hit_frac", ratio(get("runner_cache_hits_total", "beffd_cache_hits_total"), cells), "frac")
	set("runner.dedupe_hits", per(get("beffd_dedupe_hits_total")), "count/op")
	set("runner.sweep_frac", ratio(tr.total("runner.sweep"), opMS), "frac")
	straggler := 0.0
	if st := newDist(trc.stragglers); st.n() > 0 {
		straggler = st.median()
	}
	set("runner.straggler_ratio", straggler, "ratio")
	set("report.assemble_frac", ratio(tr.total("report.assemble"), opMS), "frac")

	gets := get("store_gets_total")
	set("store.puts", per(get("store_puts_total")), "count/op")
	set("store.gets", per(gets), "count/op")
	set("store.get_miss_frac", ratio(get("store_get_misses_total"), gets), "frac")
	set("store.segments", get("store_segments"), "count")

	set("serve.submit_frac", ratio(tr.total("serve.submit"), opMS), "frac")
	set("serve.wait_frac", ratio(tr.total("serve.wait"), opMS), "frac")
	set("serve.result_frac", ratio(tr.total("serve.result"), opMS), "frac")
	set("serve.rejects", get("beffd_admission_rejects_total"), "count")

	set("runtime.alloc_mb_per_op", per(float64(mem1.TotalAlloc-mem0.TotalAlloc))/1e6, "MB/op")
	set("runtime.gc_cycles_per_op", per(float64(mem1.NumGC-mem0.NumGC)), "count/op")

	set("tracing_overhead", ratio(newDist(trc.ops).median(), newDist(plain.ops).median()), "ratio")
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writePin records a workload's seed-1 output digest in the pin file;
// the fleet report is also kept in full beside it, so a drift can be
// diffed.
func writePin(name string, out []byte) error {
	pins := map[string]string{}
	if data, err := os.ReadFile(pinsPath); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("%s: %w", pinsPath, err)
		}
	}
	pins[name] = digest(out)
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(pinsPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if name == "fleet_cold" {
		return os.WriteFile(fleetReportPath, out, 0o644)
	}
	return nil
}

// fleetReportPath holds the seed-1 fleet report whose digest is pinned.
const fleetReportPath = "perfbench/testdata/fleet_cold_seed1.json"

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports Maxrss in kB, Darwin in bytes.
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024
}
