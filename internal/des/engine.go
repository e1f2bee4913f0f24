//go:build go1.23

package des

import (
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"

	"github.com/hpcbench/beff/internal/obs"
)

// Engine is a sequential discrete-event scheduler. It owns a set of
// processes (see Proc) and a virtual clock. At any instant exactly one
// process runs; all others are either queued with a wake-up time or
// blocked on a Cond. The engine always resumes the runnable process with
// the smallest wake-up time, which preserves causality: shared state is
// only ever mutated in nondecreasing virtual-time order.
//
// Each process is an iter.Pull coroutine, and Run's loop is the only
// scheduler: it resumes one process at a time and regains control when
// that process yields or finishes. A resume is a coroutine switch, which
// bypasses the Go scheduler, and iter.Pull's race annotations give the
// happens-before edges that keep -race clean.
//
// A process inside Proc.Await is popped without a resume: Run's loop
// runs the awaited Stepper's next step itself and resumes the coroutine
// only once the wait is over. The run queue sees the same pushes and
// pops either way, so pops (Metrics.Dispatches) outnumber resumes
// (Metrics.Resumes) by the steps run on Run's goroutine.
type Engine struct {
	clock    Time
	queue    procHeap
	seq      uint64
	procs    []Proc
	running  *Proc // the process Run's loop resumed last
	finished int
	failure  error

	// advanceObs holds observers registered through OnAdvance, all
	// notified on every clock advance in registration order.
	advanceObs []func(from, to Time)

	metrics *Metrics
}

// Metrics is the engine's optional observability hook-up: a set of
// obs instruments the scheduler increments on its hot paths. All
// fields may be nil (obs instruments are nil-safe); a nil *Metrics
// costs one predictable branch per dispatch. Attach with SetMetrics
// before Run.
type Metrics struct {
	// Dispatches counts pops: one per process taken from the run queue
	// by Run's loop (fast-path self-advances are not dispatches).
	Dispatches *obs.Counter

	// Resumes counts coroutine switches into a process: a pop of a
	// process inside Proc.Await whose wait goes on runs a step on Run's
	// goroutine and is a dispatch but no resume.
	Resumes *obs.Counter

	// Advances counts clock movements to a strictly later virtual
	// time, across both queue dispatches and the SleepUntil fast path.
	Advances *obs.Counter

	// FastAdvances counts fast-path advances — sleeps (SleepUntil or a
	// Stepper's) that skipped the heap and the coroutine switch because
	// no other process woke earlier.
	FastAdvances *obs.Counter

	// HeapDepthMax is the high-watermark of the run-queue depth.
	HeapDepthMax *obs.Gauge
}

// SetMetrics attaches scheduler instruments; nil detaches them.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time. It is only meaningful while Run
// is executing (from inside process bodies or engine callbacks).
func (e *Engine) Now() Time { return e.clock }

// OnAdvance registers an observer called on every advancement of the
// virtual clock, with the clock value before and after. The scheduler
// guarantees to >= from; internal/check uses this hook to assert it
// independently. Observers compose: each OnAdvance call adds a
// subscriber, and all of them fire in registration order. Hooks run
// while no other process runs: on Run's goroutine for a dispatch, inside
// the sleeping process for a SleepUntil fast-path advance, and on
// whichever goroutine runs the step for a fast-path advance inside a
// Stepper's Step (Run's, for every step but an Await's first). They
// must not call back into the engine.
func (e *Engine) OnAdvance(fn func(from, to Time)) {
	if fn != nil {
		e.advanceObs = append(e.advanceObs, fn)
	}
}

// notifyAdvance fans a clock advance out to every registered observer.
// Callers gate on needsAdvance to keep the no-subscriber cost to one
// predictable branch.
func (e *Engine) notifyAdvance(from, to Time) {
	for _, fn := range e.advanceObs {
		fn(from, to)
	}
}

func (e *Engine) needsAdvance() bool {
	return len(e.advanceObs) > 0
}

// abortError is the panic that unwinds a suspended process when Run
// stops its coroutine (deadlock, a process failure, or Run's caller
// exiting). Proc.run swallows it; it must never escape to user code.
type abortError struct{}

func (abortError) Error() string { return "des: process stopped by engine teardown" }

// Run creates n processes executing body and drives the simulation until
// every process has returned. The process with rank 0..n-1 is passed its
// own Proc handle. Run returns an error if the simulation deadlocks
// (every live process blocked on a Cond) or if any process panics or
// calls Proc.Fail. A runtime.Goexit in a body (t.FailNow, say) exits
// Run's calling goroutine, as if the body had run there. However Run
// exits, it first stops every process that has not finished, so no
// coroutine outlives it.
func (e *Engine) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("des: Run needs at least one process, got %d", n)
	}
	if len(e.procs) != 0 {
		return fmt.Errorf("des: engine already used; create a fresh engine per Run")
	}
	// Each iter.Pull costs eleven allocations and cmd/bench gates
	// allocations, so nothing else is allocated per process: the
	// processes share one slab and one start function, which finds its
	// process in e.running on the first resume, and the run queue never
	// regrows.
	e.procs = make([]Proc, n)
	e.queue = make(procHeap, 0, n)
	start := func(suspend func(struct{}) bool) { e.running.run(body, suspend) }
	for i := range e.procs {
		p := &e.procs[i]
		p.id, p.eng = i, e
		p.next, p.stop = iter.Pull(start)
		e.push(p, 0)
	}
	defer e.teardown()
	e.dispatch()
	if e.failure == nil && e.finished != n {
		e.failure = e.deadlockError()
	}
	return e.failure
}

// yieldEvery is how many pops Run's loop makes between yields to the Go
// scheduler. The loop switches to coroutines without entering the
// scheduler, and most pops switch to none at all, so at GOMAXPROCS 1
// the garbage collector's mark worker would wait for a forced
// preemption while every pointer write pays the write barrier. On
// b_eff_io at t3e/16 (T = 20 s, GOMAXPROCS 1, a 2-vCPU Xeon, go1.24.0)
// a mark phase took 3 to 16 ms of wall time without the yield and 0.4
// to 2 ms with it, and the write barrier went from 9.6 % of CPU to
// under 2 %.
const yieldEvery = 1024

// dispatch is Run's loop. It pops the earliest process and either
// resumes its coroutine or, for a process inside Await, runs the wait's
// next step, resuming the coroutine once the wait is over. A panic in a
// step (Proc.Fail, say) ends the loop and fails the run as a panic in
// the body would; the process stays suspended in Await until teardown
// stops it.
func (e *Engine) dispatch() {
	var stepping *Proc
	defer func() {
		if stepping != nil {
			if r := recover(); r != nil && e.failure == nil {
				e.failure = fmt.Errorf("des: %s panicked: %v", stepping.Label(), r)
			}
		}
	}()
	for pops := 1; e.failure == nil && e.queue.Len() > 0; pops++ {
		if pops%yieldEvery == 0 {
			runtime.Gosched()
		}
		p := e.pop()
		p.state = stateRunning
		if p.wakeAt < e.clock {
			// Should be impossible: wake times are always >= the clock at
			// the moment they are set.
			e.failure = fmt.Errorf("des: time ran backwards (clock %v, wake %v for %s)", e.clock, p.wakeAt, p.Label())
			return
		}
		if e.needsAdvance() {
			e.notifyAdvance(e.clock, p.wakeAt)
		}
		if m := e.metrics; m != nil {
			m.Dispatches.Inc()
			if p.wakeAt > e.clock {
				m.Advances.Inc()
			}
		}
		e.clock = p.wakeAt
		if p.stepper != nil {
			stepping, p.now = p, p.wakeAt
			done := p.drive(p.stepper)
			stepping = nil
			if !done {
				continue
			}
			p.stepper = nil
		}
		if m := e.metrics; m != nil {
			m.Resumes.Inc()
		}
		e.running = p
		p.next()
	}
}

// run is a process's coroutine body. It is entered on the process's
// first dispatch. A panic (including Proc.Fail) records the failure and
// ends the coroutine, which hands control back to Run's loop; the
// abortError panic raised when teardown stops the process is only
// unwinding and counts for nothing.
func (p *Proc) run(body func(p *Proc), suspend func(struct{}) bool) {
	e := p.eng
	p.suspend = suspend
	defer func() {
		p.state = stateDone
		r := recover()
		if _, isAbort := r.(abortError); isAbort {
			return
		}
		e.finished++
		if r != nil && e.failure == nil {
			e.failure = fmt.Errorf("des: %s panicked: %v", p.Label(), r)
		}
	}()
	body(p)
}

// teardown stops the coroutine of every process that has not finished.
// A suspended process unwinds through its body's defers with
// abortError; one that was never activated is dropped without running.
func (e *Engine) teardown() {
	for i := range e.procs {
		p := &e.procs[i]
		if p.state == stateDone {
			continue
		}
		if p.state == stateQueued {
			e.queue.remove(p.heapIdx)
		}
		p.stop()
	}
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for i := range e.procs {
		if p := &e.procs[i]; p.state == stateBlocked {
			stuck = append(stuck, fmt.Sprintf("%s (at %v, waiting on %s)", p.Label(), p.now, p.waitingOn))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("des: deadlock at %v: %d of %d processes blocked:\n  %s",
		e.clock, len(stuck), len(e.procs), strings.Join(stuck, "\n  "))
}

func (e *Engine) push(p *Proc, at Time) {
	p.wakeAt = at
	p.seq = e.seq
	e.seq++
	p.state = stateQueued
	e.queue.push(p)
	if m := e.metrics; m != nil {
		m.HeapDepthMax.SetMax(int64(e.queue.Len()))
	}
}

func (e *Engine) pop() *Proc {
	return e.queue.pop()
}

// procHeap is a hand-rolled binary min-heap of processes ordered by wake
// time, breaking ties by insertion sequence so that scheduling is fully
// deterministic. It is specialised (rather than using container/heap) to
// keep the comparisons inlined: the heap is the scheduler's hottest data
// structure. (wakeAt, seq) is a total order — seq values are unique —
// so the pop sequence does not depend on the internal layout.
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }

func (h procHeap) before(a, b *Proc) bool {
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.seq < b.seq
}

func (h *procHeap) push(p *Proc) {
	q := append(*h, p)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(p, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].heapIdx = i
		i = parent
	}
	q[i] = p
	p.heapIdx = i
	*h = q
}

func (h *procHeap) pop() *Proc {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// remove deletes the element at index i (teardown only).
func (h *procHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if i < n {
		q.siftDown(i, last)
		if q[i] == last {
			// last may also need to move up from position i.
			q.siftUp(i)
		}
	}
}

// siftDown places p at index i, moving smaller children up.
func (h procHeap) siftDown(i int, p *Proc) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.before(h[r], h[child]) {
			child = r
		}
		if !h.before(h[child], p) {
			break
		}
		h[i] = h[child]
		h[i].heapIdx = i
		i = child
	}
	h[i] = p
	p.heapIdx = i
}

// siftUp restores the heap property upwards from index i.
func (h procHeap) siftUp(i int) {
	p := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(p, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].heapIdx = i
		i = parent
	}
	h[i] = p
	p.heapIdx = i
}
