package des

import (
	"fmt"
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
type Engine struct {
	clock    Time
	queue    procHeap
	seq      uint64
	procs    []*Proc
	finished int
	failure  error

	// done wakes Run's goroutine when the baton has nowhere to go: the
	// run queue emptied (normal end or deadlock), a process failed, or
	// an aborted process finished unwinding during teardown.
	done chan struct{}

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
	// Dispatches counts baton handoffs: one per process popped from the
	// run queue and resumed, whichever goroutine passed it the baton
	// (fast-path self-advances are not dispatches).
	Dispatches *obs.Counter

	// Advances counts clock movements to a strictly later virtual
	// time, across both queue dispatches and the SleepUntil fast path.
	Advances *obs.Counter

	// FastAdvances counts SleepUntil fast-path advances — sleeps that
	// skipped the heap and the goroutine handoff because no other
	// process woke earlier.
	FastAdvances *obs.Counter

	// HeapDepthMax is the high-watermark of the run-queue depth.
	HeapDepthMax *obs.Gauge
}

// SetMetrics attaches scheduler instruments; nil detaches them.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{done: make(chan struct{})}
}

// Now reports the current virtual time. It is only meaningful while Run
// is executing (from inside process bodies or engine callbacks).
func (e *Engine) Now() Time { return e.clock }

// OnAdvance registers an observer called on every advancement of the
// virtual clock, with the clock value before and after. The scheduler
// guarantees to >= from; internal/check uses this hook to assert it
// independently. Observers compose: each OnAdvance call adds a
// subscriber, and all of them fire in registration order. Hooks run
// on whichever goroutine is passing the baton on, while no process
// runs, and must not call back into the engine.
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

// abortError is the sentinel carried by the panic that tears down
// leftover process goroutines when a run aborts (deadlock or a process
// failure). It must never escape to user code.
type abortError struct{ cause error }

func (a abortError) Error() string { return "des: simulation aborted: " + a.cause.Error() }

// Run creates n processes executing body and drives the simulation until
// every process has returned. The process with rank 0..n-1 is passed its
// own Proc handle. Run returns an error if the simulation deadlocks
// (every live process blocked on a Cond) or if any process panics or
// calls Proc.Fail.
//
// There is no scheduler goroutine: a process that yields or finishes
// passes the baton straight to the next one (see schedule), so each
// dispatch costs one goroutine switch. Run's own goroutine only starts
// the first process and then waits on done.
func (e *Engine) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("des: Run needs at least one process, got %d", n)
	}
	if len(e.procs) != 0 {
		return fmt.Errorf("des: engine already used; create a fresh engine per Run")
	}
	e.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		p := &Proc{id: i, eng: e, resume: make(chan resumeMsg), label: fmt.Sprintf("proc %d", i)}
		e.procs[i] = p
		e.push(p, 0)
		go p.run(body)
	}
	e.schedule()
	<-e.done
	if e.failure == nil && e.finished != len(e.procs) {
		e.failure = e.deadlockError()
	}
	if e.failure != nil {
		return e.teardown()
	}
	return nil
}

// run is a process goroutine: wait for the first activation, execute
// body, then pass the baton on. A panic (including Proc.Fail) records
// the failure and wakes Run instead; the abortError panic raised by
// teardown just reports the unwinding as finished.
func (p *Proc) run(body func(p *Proc)) {
	e := p.eng
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		p.state = stateDone
		if _, isAbort := r.(abortError); !isAbort {
			e.finished++
			if e.failure == nil {
				e.failure = fmt.Errorf("des: %s panicked: %v", p.label, r)
			}
		}
		e.done <- struct{}{}
	}()
	p.waitResume() // first activation
	body(p)
	p.state = stateDone
	e.finished++
	e.schedule()
}

// schedule passes the baton on: it pops the earliest runnable process,
// advances the clock, and resumes that process. It is called by the
// goroutine giving up the baton, which must not touch simulation state
// afterwards. With the run queue empty it wakes Run instead, which
// tells a finished simulation from a deadlock.
func (e *Engine) schedule() {
	if e.queue.Len() == 0 {
		e.done <- struct{}{}
		return
	}
	p := e.pop()
	p.state = stateRunning
	if p.wakeAt < e.clock {
		// Should be impossible: wake times are always >= the clock at
		// the moment they are set.
		e.failure = fmt.Errorf("des: time ran backwards (clock %v, wake %v for %s)", e.clock, p.wakeAt, p.label)
		e.done <- struct{}{}
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
	p.resume <- resumeMsg{}
}

// teardown force-unwinds every process that has not finished so their
// goroutines exit, one at a time over done, then reports the recorded
// failure.
func (e *Engine) teardown() error {
	for _, p := range e.procs {
		if p.state == stateDone {
			continue
		}
		// Remove from the run queue if present, then resume with the
		// abort flag set; the process panics with abortError which its
		// wrapper swallows.
		if p.state == stateQueued {
			e.queue.remove(p.heapIdx)
		}
		p.state = stateAborting
		p.resume <- resumeMsg{abort: true}
		<-e.done
	}
	return e.failure
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if p.state == stateBlocked {
			stuck = append(stuck, fmt.Sprintf("%s (at %v, waiting on %s)", p.label, p.now, p.waitingOn))
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
