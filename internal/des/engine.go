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
	running  *Proc
	yieldCh  chan *Proc
	seq      uint64
	procs    []*Proc
	finished int
	aborting bool
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
	// Dispatches counts baton handoffs: one per process resumed by the
	// scheduler loop (fast-path self-advances are not dispatches).
	Dispatches *obs.Counter

	// Advances counts clock movements to a strictly later virtual
	// time, across both the scheduler loop and the SleepUntil fast
	// path.
	Advances *obs.Counter

	// FastAdvances counts SleepUntil fast-path advances — sleeps that
	// skipped the heap and channel handoff because no other process
	// woke earlier.
	FastAdvances *obs.Counter

	// HeapDepthMax is the high-watermark of the run-queue depth.
	HeapDepthMax *obs.Gauge
}

// SetMetrics attaches scheduler instruments; nil detaches them.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{yieldCh: make(chan *Proc)}
}

// Now reports the current virtual time. It is only meaningful while Run
// is executing (from inside process bodies or engine callbacks).
func (e *Engine) Now() Time { return e.clock }

// OnAdvance registers an observer called on every advancement of the
// virtual clock, with the clock value before and after. The scheduler
// guarantees to >= from; internal/check uses this hook to assert it
// independently. Observers compose: each OnAdvance call adds a
// subscriber, and all of them fire in registration order. Hooks run
// inside the scheduler loop and must not call back into the engine.
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
func (e *Engine) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("des: Run needs at least one process, got %d", n)
	}
	if e.running != nil || len(e.procs) != 0 {
		return fmt.Errorf("des: engine already used; create a fresh engine per Run")
	}
	e.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		p := &Proc{id: i, eng: e, resume: make(chan resumeMsg), label: fmt.Sprintf("proc %d", i)}
		e.procs[i] = p
		e.push(p, 0)
		go func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					if _, isAbort := r.(abortError); isAbort {
						// Engine-initiated teardown: report back silently.
						p.state = stateDone
						e.yieldCh <- p
						return
					}
					p.state = stateDone
					p.err = fmt.Errorf("des: %s panicked: %v", p.label, r)
					e.yieldCh <- p
					return
				}
			}()
			p.waitResume() // first activation
			body(p)
			p.state = stateDone
			e.yieldCh <- p
		}(p)
	}
	return e.loop()
}

// loop is the scheduler: pop the earliest runnable process, advance the
// clock, hand it the baton, and wait for it to yield or finish.
func (e *Engine) loop() error {
	for e.queue.Len() > 0 {
		p := e.pop()
		if p.wakeAt < e.clock {
			// Should be impossible: wake times are always >= the clock
			// at the moment they are set.
			return fmt.Errorf("des: time ran backwards (clock %v, wake %v for %s)", e.clock, p.wakeAt, p.label)
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
		p.now = p.wakeAt
		e.running = p
		p.resume <- resumeMsg{}
		<-e.yieldCh
		e.running = nil
		switch p.state {
		case stateDone:
			e.finished++
			if p.err != nil && e.failure == nil {
				e.failure = p.err
			}
			if e.failure != nil {
				return e.teardown()
			}
		case stateQueued, stateBlocked:
			// Re-queued by its own Sleep / Cond wait; nothing to do.
		default:
			return fmt.Errorf("des: %s yielded in unexpected state %d", p.label, p.state)
		}
	}
	if e.finished != len(e.procs) {
		err := e.deadlockError()
		e.failure = err
		return e.teardown()
	}
	return nil
}

// teardown force-unwinds every process that is still blocked so their
// goroutines exit, then reports the recorded failure.
func (e *Engine) teardown() error {
	e.aborting = true
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
		<-e.yieldCh
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
