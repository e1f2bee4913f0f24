// Package runner orchestrates experiment sweeps: it fans independent
// simulation cells out over a worker pool and memoises their results in
// a content-addressed on-disk cache.
//
// Every figure and table of the paper reproduction is an aggregate of
// dozens of independent deterministic simulations — one des.Engine run
// per (machine profile, benchmark parameters) cell. Cells share no
// state (each owns a fresh engine, network and filesystem), so they are
// embarrassingly parallel: running them concurrently cannot change any
// cell's virtual-time schedule, and the per-cell protocols stay
// byte-identical at any worker count. Sweep preserves the input order
// of the cells in its output regardless of completion order, so
// everything rendered from the results is deterministic too.
//
// A failed cell (error or panic) does not kill the sweep: its Result
// carries the error and the remaining cells still run. Err collects the
// failures for a non-zero exit.
package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Cell is one independent unit of a sweep: a deterministic simulation
// plus the identity needed to cache its result.
type Cell[T any] struct {
	// Key labels the cell in progress output and error reports. It
	// should be unique within a sweep but carries no cache semantics.
	Key string

	// Fingerprint is the cache identity: every input that determines
	// the result (machine configuration, benchmark options, partition
	// size). It is canonicalised through JSON and hashed together with
	// the cache's code-version salt. A nil Fingerprint makes the cell
	// uncacheable — it recomputes on every sweep.
	Fingerprint any

	// Run computes the result. It must be deterministic and
	// self-contained: build a fresh world/engine inside, share nothing
	// with other cells. The value must survive a JSON round-trip if the
	// sweep is cached.
	Run func() (T, error)
}

// Result is the outcome of one cell.
type Result[T any] struct {
	Key     string
	Value   T
	Err     error
	Cached  bool          // satisfied from the cache, Run not invoked
	Elapsed time.Duration // host time, including cache probe
}

// Options configures a sweep.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int

	// Cache enables result memoisation; nil disables it.
	Cache *Cache

	// Progress receives one line per completed cell with a running
	// count and ETA; nil disables progress reporting.
	Progress io.Writer

	// Label prefixes progress lines (usually the command name).
	Label string

	// Metrics, when non-nil, counts sweep activity (cells, cache hits,
	// worker occupancy). Instruments are updated from worker
	// goroutines; obs instruments are atomic, so a concurrent
	// -metrics streamer may watch a sweep live.
	Metrics *Metrics
}

// Sweep runs every cell and returns one Result per cell, in cell
// order. It never returns early: a failing cell records its error and
// the sweep continues. Use Err to turn failures into an exit status.
//
// The cells run as tasks on a Pool sized for the sweep. Their tasks
// carry no Hash, so nothing is deduped: every cell resolves once, in
// its own slot.
func Sweep[T any](cells []Cell[T], opt Options) []Result[T] {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	out := make([]Result[T], len(cells))
	if len(cells) == 0 {
		return out
	}

	pg := &progress{w: opt.Progress, label: opt.Label, total: len(cells), workers: workers}
	pool := NewPool(workers, opt.Metrics)
	handles := make([]*Handle, len(cells))
	for i, c := range cells {
		handles[i], _ = pool.Submit(Task{Key: c.Key, Run: func() (json.RawMessage, bool, error) {
			out[i] = RunCell(c, opt.Cache)
			pg.report(out[i].Key, out[i].Cached, out[i].Elapsed, out[i].Err)
			return nil, out[i].Cached, out[i].Err
		}})
	}
	pool.Close()
	for i, h := range handles {
		// A panic outside the cell body (RunCell's own cache plumbing)
		// never wrote its slot; the pool recovered it as the task error.
		if _, _, _, err := h.Result(); err != nil && out[i].Err == nil {
			out[i] = Result[T]{Key: cells[i].Key, Err: err}
		}
	}
	return out
}

// RunCell resolves one cell synchronously: cache probe, compute,
// cache store. Sweep workers use it per cell; the service layer
// (internal/serve) uses it directly so HTTP-served results share the
// same cache entries as CLI sweeps. A nil cache always recomputes.
func RunCell[T any](c Cell[T], cache *Cache) Result[T] {
	res, _ := runCell(c, cache, cache.cellKey(c.Fingerprint), false)
	return res
}

// runCell is RunCell under a precomputed cache key ("" recomputes
// without touching the cache). It also returns the body of the entry
// it hit or stored, the bytes JSONTask serves, or nil when it has none.
// With raw set, a hit on an entry in the served layout returns its body
// without decoding it into Value. A hit on a legacy entry rewrites it in
// the served layout, unless the cache is read-only.
func runCell[T any](c Cell[T], cache *Cache, key string, raw bool) (Result[T], json.RawMessage) {
	res := Result[T]{Key: c.Key}
	start := time.Now()
	var body json.RawMessage
	if key != "" {
		var ok bool
		if body, ok = cache.load(key, &res.Value, raw); ok {
			if body == nil && cache.locked == nil {
				body = cache.store(key, c.Key, c.Fingerprint, res.Value)
			}
			res.Cached = true
			res.Elapsed = time.Since(start)
			return res, body
		}
		// Miss, corrupted entry, or stale code version: fall through
		// and recompute; the store below repairs the entry.
		var zero T
		res.Value = zero
	}
	res.Value, res.Err = protect(c)
	res.Elapsed = time.Since(start)
	if res.Err == nil && key != "" {
		body = cache.store(key, c.Key, c.Fingerprint, res.Value)
	}
	return res, body
}

// protect invokes the cell body with panic isolation: a panicking cell
// becomes a failed Result instead of killing the sweep. (Panics inside
// simulated processes are already converted to errors by des.Engine;
// this guards the setup code around it.)
func protect[T any](c Cell[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %s: panic: %v", c.Key, r)
		}
	}()
	return c.Run()
}

// Err summarises a sweep's failures: nil if every cell succeeded,
// otherwise one error naming each failed cell. Commands should treat a
// non-nil Err as a non-zero exit instead of rendering partial tables
// silently.
func Err[T any](results []Result[T]) error {
	var failed []string
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, fmt.Sprintf("  %s: %v", r.Key, r.Err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d cells failed:\n%s", len(failed), len(results), strings.Join(failed, "\n"))
}

// Values extracts the result values in cell order; failed cells
// contribute their zero value. Call Err first.
func Values[T any](results []Result[T]) []T {
	vs := make([]T, len(results))
	for i, r := range results {
		vs[i] = r.Value
	}
	return vs
}

// progress serialises per-cell completion lines with a running ETA.
// The estimate assumes the remaining cells cost the average compute
// time of the finished ones, spread over the worker pool — crude, but
// it converges quickly on the homogeneous sweeps the commands run.
type progress struct {
	mu       sync.Mutex
	w        io.Writer
	label    string
	total    int
	workers  int
	done     int
	computed int
	busy     time.Duration
}

func (pg *progress) report(key string, cached bool, elapsed time.Duration, err error) {
	if pg.w == nil {
		return
	}
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.done++
	status := elapsed.Round(time.Millisecond).String()
	if cached {
		status = "cached"
	} else {
		pg.computed++
		pg.busy += elapsed
	}
	if err != nil {
		status = "FAILED: " + err.Error()
	}
	line := fmt.Sprintf("%s: [%d/%d] %s %s", pg.label, pg.done, pg.total, key, status)
	if remaining := pg.total - pg.done; remaining > 0 && pg.computed > 0 {
		eta := pg.busy / time.Duration(pg.computed) * time.Duration(remaining) / time.Duration(pg.workers)
		line += fmt.Sprintf(" (ETA %s)", eta.Round(100*time.Millisecond))
	}
	fmt.Fprintln(pg.w, line)
}
