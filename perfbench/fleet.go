package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/runner"
)

// fleetBench sweeps every registered machine profile at 4 and 8 ranks
// into one fleet report, each sweep against a fresh, empty store-backed
// cache: all cells miss, so the cache takes writes only, and the cells
// contend for the host's cores. Opening the cache is the set-up; the
// sweep and the report assembly are the timed operation.
type fleetBench struct {
	cfg      config
	machines []string // nil means every registered profile

	opened int // caches opened so far; names the next directory
	dir    string
	cache  *runner.Cache
	out    []byte // the first operation's report bytes
}

func openFleet(cfg config) (bench, error) {
	b := &fleetBench{cfg: cfg}
	if cfg.small {
		b.machines = []string{"t3e", "cluster"}
	}
	return b, nil
}

func (b *fleetBench) setup() (time.Duration, error) {
	if err := b.dropCache(); err != nil {
		return 0, err
	}
	b.dir = filepath.Join(b.cfg.workdir, fmt.Sprintf("fleet-%d", b.opened))
	b.opened++
	start := time.Now()
	c, err := runner.OpenCache(b.dir)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	b.cache = c
	return d, nil
}

// dropCache closes and deletes the current cache, if any.
func (b *fleetBench) dropCache() error {
	if b.cache == nil {
		return nil
	}
	err := b.cache.Close()
	b.cache = nil
	if rmErr := os.RemoveAll(b.dir); err == nil {
		err = rmErr
	}
	return err
}

func (b *fleetBench) warmUp(t *tally) error { return b.run(time.Now(), nil, t) }

func (b *fleetBench) run(until time.Time, tr *tracer, t *tally) error {
	for {
		if _, err := b.setup(); err != nil {
			return err
		}
		spec := &runner.FleetSpec{Machines: b.machines, Procs: []int{4, 8}, Seed: b.cfg.seed}
		opt := runner.Options{Workers: runtime.GOMAXPROCS(0), Cache: b.cache}
		if tr != nil {
			opt.Metrics = cli.NewObs(tr.reg).RunnerMetrics()
			b.cache.Instrument(tr.reg)
		}
		start := time.Now()
		results, data, err := b.sweep(spec, opt, tr)
		d := time.Since(start)
		if err == nil {
			err = b.check(results, data)
		}
		t.addOp(d, err)
		if s := straggler(results); s > 0 {
			t.mu.Lock()
			t.stragglers = append(t.stragglers, s)
			t.mu.Unlock()
		}
		if !time.Now().Before(until) {
			return nil
		}
	}
}

// sweep is one timed operation: expand, sweep and assemble the fleet.
func (b *fleetBench) sweep(spec *runner.FleetSpec, opt runner.Options, tr *tracer) ([]runner.Result[*core.Result], []byte, error) {
	cells, refs, err := runner.FleetCells(spec)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	results := runner.Sweep(cells, opt)
	tr.end("runner.sweep", start)
	if err := runner.Err(results); err != nil {
		return results, nil, err
	}
	start = time.Now()
	fr, err := runner.AssembleFleet(spec, refs, runner.Values(results))
	if err != nil {
		return results, nil, err
	}
	data, err := report.FleetJSON(fr)
	tr.end("report.assemble", start)
	return results, data, err
}

// check audits every cell, requires every cell to have been computed
// (the cache starts empty), and requires the report to be byte-equal to
// the first operation's.
func (b *fleetBench) check(results []runner.Result[*core.Result], data []byte) error {
	ck := check.New()
	for _, r := range results {
		if r.Cached {
			return fmt.Errorf("cell %s hit the cache of a cold sweep", r.Key)
		}
		ck.VerifyBeff(r.Value)
	}
	if err := ck.Err(); err != nil {
		return err
	}
	if b.out == nil {
		b.out = data
	} else if !bytes.Equal(data, b.out) {
		return fmt.Errorf("fleet report differs from the first operation's (sha256 %s, want %s)", digest(data), digest(b.out))
	}
	return nil
}

// straggler is the slowest computed cell's host time over the median
// one's: the slowest cell sets when a sweep ends. Zero when no cell was
// computed.
func straggler(results []runner.Result[*core.Result]) float64 {
	var elapsed []float64
	for _, r := range results {
		if !r.Cached && r.Err == nil {
			elapsed = append(elapsed, float64(r.Elapsed))
		}
	}
	d := newDist(elapsed)
	if d.n() == 0 || d.median() <= 0 {
		return 0
	}
	return d.max() / d.median()
}

func (b *fleetBench) output() []byte { return b.out }

func (b *fleetBench) close() error { return b.dropCache() }
