package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/hpcbench/beff/internal/obs"
)

// The Pool is the one cell executor: a long-lived worker set that
// accepts tasks one at a time, hands back a Handle per submission, and
// keeps running until Close drains it. It is the execution layer under
// cmd/beffd — every HTTP sweep request becomes pool tasks — and under
// Sweep, which submits one fixed batch of cells and closes the pool.
// Anything that wants submit/poll/cancel semantics over simulation
// cells can use it.
//
// Two properties distinguish it from a plain worker pool:
//
//   - In-flight dedupe. A Task carries the content-addressed hash of
//     its cell fingerprint (FingerprintKey). Submitting a task whose
//     hash matches one that is already queued or running does not
//     enqueue a second execution: the new Handle attaches to the
//     existing one and both observe the same result. Combined with the
//     on-disk cache (which catches re-submissions *after* completion),
//     identical concurrent requests cost one simulation total.
//
//   - Cancellation. A queued task can be cancelled, which removes it
//     from the queue; a deduped attachment can always detach. A task
//     that is already running is not interruptible — the simulation
//     engine has no preemption points — so Cancel reports false and
//     the execution completes for any remaining waiters.

// ErrPoolClosed is returned by Submit after Close has begun draining.
var ErrPoolClosed = errors.New("runner: pool closed")

// ErrTaskCanceled is the error a cancelled Handle reports.
var ErrTaskCanceled = errors.New("runner: task canceled")

// Task is one unit of pool work.
type Task struct {
	// Key labels the task in errors and service output; no semantics.
	Key string

	// Hash is the in-flight dedupe identity — normally the
	// FingerprintKey of the cell's fingerprint, so two tasks share an
	// execution exactly when they would share a cache entry. Empty
	// disables dedupe for this task.
	Hash string

	// Run computes the result. The cached flag reports whether the
	// value was satisfied from the on-disk cache (for metrics); pool
	// workers invoke Run with the same panic isolation as Sweep.
	Run func() (value json.RawMessage, cached bool, err error)
}

// TaskState is the lifecycle of a submission.
type TaskState int

const (
	// TaskQueued: admitted, waiting for a worker.
	TaskQueued TaskState = iota
	// TaskRunning: a worker is executing the task.
	TaskRunning
	// TaskDone: finished (successfully or with an error).
	TaskDone
	// TaskCanceled: removed from the queue before any worker took it.
	TaskCanceled
)

// String renders the state for service output.
func (s TaskState) String() string {
	switch s {
	case TaskQueued:
		return "queued"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskCanceled:
		return "canceled"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// execution is the shared computation behind one or more Handles.
type execution struct {
	task    Task
	state   TaskState
	value   json.RawMessage
	cached  bool
	err     error
	elapsed time.Duration
	handles []*Handle // attached waiters, owner first
}

// Handle is one submission's view of an execution. Multiple handles
// may share an execution (in-flight dedupe); each has its own Done
// channel and its own cancellation.
type Handle struct {
	pool    *Pool
	e       *execution
	deduped bool
	ch      chan struct{}
	// canceled marks this handle detached; the execution may still run
	// for other waiters. Guarded by pool.mu.
	canceled bool
}

// Deduped reports whether this submission attached to an execution
// that was already in flight rather than enqueueing a new one.
func (h *Handle) Deduped() bool { return h.deduped }

// Key reports the task key of the underlying execution.
func (h *Handle) Key() string { return h.e.task.Key }

// Done returns a channel closed when the handle's result is available
// — execution finished, or this handle cancelled.
func (h *Handle) Done() <-chan struct{} { return h.ch }

// State reports the handle's current lifecycle state. A cancelled
// handle reports TaskCanceled even if the shared execution is still
// running for other waiters.
func (h *Handle) State() TaskState {
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	if h.canceled {
		return TaskCanceled
	}
	return h.e.state
}

// Result returns the execution's outcome. It must only be called
// after Done is closed; a cancelled handle reports ErrTaskCanceled.
func (h *Handle) Result() (value json.RawMessage, cached bool, elapsed time.Duration, err error) {
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	if h.canceled {
		return nil, false, 0, ErrTaskCanceled
	}
	return h.e.value, h.e.cached, h.e.elapsed, h.e.err
}

// Cancel detaches the handle if its result is not yet being computed:
// a queued execution with no remaining waiters is removed from the
// queue, and a deduped attachment simply detaches. It reports whether
// the handle was cancelled; a running or finished execution is not
// cancellable (the engine has no preemption points) and leaves the
// handle attached.
func (h *Handle) Cancel() bool {
	p := h.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.canceled {
		return true
	}
	if h.e.state != TaskQueued {
		return false
	}
	h.canceled = true
	h.e.detach(h)
	close(h.ch)
	if len(h.e.handles) == 0 {
		// Last waiter gone: the execution itself is cancelled.
		h.e.state = TaskCanceled
		p.removeQueued(h.e)
		if h.e.task.Hash != "" {
			delete(p.inflight, h.e.task.Hash)
		}
		p.m.queueDepth(-1)
	}
	return true
}

func (e *execution) detach(h *Handle) {
	for i, o := range e.handles {
		if o == h {
			e.handles = append(e.handles[:i], e.handles[i+1:]...)
			return
		}
	}
}

// Metrics is the pool's optional observability hook-up: the
// instrument set behind beffd's queue-depth, in-flight and dedupe
// gauges, and behind a CLI sweep's runner_* instruments. All fields
// may be nil.
type Metrics struct {
	// QueueDepth tracks tasks admitted but not yet taken by a worker.
	QueueDepth *obs.Gauge
	// InFlight tracks tasks currently executing on a worker. It
	// returns to zero when the pool drains, so final snapshots stay
	// identical at any worker count.
	InFlight *obs.Gauge
	// DedupeHits counts submissions that attached to an in-flight
	// execution instead of enqueueing their own.
	DedupeHits *obs.Counter
	// Done counts finished executions (failures included); Failed
	// counts the failures among them; CacheHits counts executions
	// satisfied from the on-disk result cache.
	Done      *obs.Counter
	Failed    *obs.Counter
	CacheHits *obs.Counter
}

func (m *Metrics) queueDepth(d int64) {
	if m != nil {
		m.QueueDepth.Add(d)
	}
}

// Pool is a long-lived worker pool over Tasks. Create with NewPool,
// retire with Close.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*execution          // FIFO among admitted executions
	inflight map[string]*execution // dedupe hash → queued-or-running execution
	closed   bool
	wg       sync.WaitGroup
	m        *Metrics
}

// NewPool starts a pool with the given worker count (<= 0 means
// GOMAXPROCS). A nil metrics set disables instrumentation.
func NewPool(workers int, m *Metrics) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{inflight: map[string]*execution{}, m: m}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit admits a task and returns its Handle. If an execution with
// the same non-empty Hash is already queued or running, the handle
// attaches to it (Deduped reports true) and no new work is enqueued.
// After Close, Submit returns ErrPoolClosed.
func (p *Pool) Submit(t Task) (*Handle, error) {
	if t.Run == nil {
		return nil, errors.New("runner: task has no Run")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if t.Hash != "" {
		if e := p.inflight[t.Hash]; e != nil {
			h := &Handle{pool: p, e: e, deduped: true, ch: make(chan struct{})}
			e.handles = append(e.handles, h)
			if p.m != nil {
				p.m.DedupeHits.Inc()
			}
			return h, nil
		}
	}
	e := &execution{task: t, state: TaskQueued}
	h := &Handle{pool: p, e: e, ch: make(chan struct{})}
	e.handles = []*Handle{h}
	p.queue = append(p.queue, e)
	if t.Hash != "" {
		p.inflight[t.Hash] = e
	}
	p.m.queueDepth(1)
	p.cond.Signal()
	return h, nil
}

// Depth reports the number of queued (not yet running) executions.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close drains the pool: no further Submit is accepted, every already
// admitted task (queued or running) completes, and Close returns when
// the workers have exited. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) removeQueued(e *execution) {
	for i, o := range p.queue {
		if o == e {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return
		}
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// Closed and drained.
			p.mu.Unlock()
			return
		}
		e := p.queue[0]
		p.queue = p.queue[1:]
		e.state = TaskRunning
		p.m.queueDepth(-1)
		if p.m != nil {
			p.m.InFlight.Add(1)
		}
		p.mu.Unlock()

		start := time.Now()
		value, cached, err := runTask(e.task)

		p.mu.Lock()
		e.value, e.cached, e.err = value, cached, err
		e.elapsed = time.Since(start)
		e.state = TaskDone
		if e.task.Hash != "" {
			delete(p.inflight, e.task.Hash)
		}
		for _, h := range e.handles {
			close(h.ch)
		}
		e.handles = nil
		if p.m != nil {
			p.m.InFlight.Add(-1)
			p.m.Done.Inc()
			if err != nil {
				p.m.Failed.Inc()
			}
			if cached {
				p.m.CacheHits.Inc()
			}
		}
		p.mu.Unlock()
	}
}

// runTask invokes the task body with the same panic isolation Sweep
// gives cells: a panicking task becomes a failed result, never a dead
// worker.
func runTask(t Task) (value json.RawMessage, cached bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %s: panic: %v", t.Key, r)
		}
	}()
	return t.Run()
}

// JSONTask adapts a typed cell into a pool Task whose value is the
// cell's result as indented JSON (json.MarshalIndent with two spaces
// plus a trailing newline) — the exact bytes of the golden corpus,
// which is what makes results served over HTTP byte-comparable to
// testdata/golden/ entries. The cell probes and repairs the same
// on-disk cache the CLI sweeps use. The task's Hash is the cell's
// FingerprintKey, so identical concurrent submissions share one
// execution; under the code-version salt it is the cache key too.
//
// An entry in the served layout holds those bytes as its body, and a
// hit serves the body as stored, never decoded. A legacy entry goes
// the typed way, through a decode into T, and the hit rewrites it in
// the served layout; a computed value is encoded once, by the store
// that persists it. Every returned value has cap == len: the service
// keeps up to MaxJobs of them.
func JSONTask[T any](c Cell[T], cache *Cache) Task {
	hash := ""
	if c.Fingerprint != nil {
		if k, err := FingerprintKey(c.Fingerprint); err == nil {
			hash = k
		}
	}
	return Task{
		Key:  c.Key,
		Hash: hash,
		Run: func() (json.RawMessage, bool, error) {
			r, body := runCell(c, cache, cache.taskKey(c.Fingerprint, hash), true)
			if r.Err != nil {
				return nil, false, r.Err
			}
			if body == nil {
				var err error
				if body, err = served(nil, r.Value); err != nil {
					return nil, false, fmt.Errorf("task %s: encode result: %w", c.Key, err)
				}
			}
			return body, r.Cached, nil
		},
	}
}
