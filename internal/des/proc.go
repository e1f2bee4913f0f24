package des

import "fmt"

type procState int8

const (
	stateQueued   procState = iota // in the run queue with a wake time
	stateRunning                   // currently holding the baton
	stateBlocked                   // parked on a Cond
	stateDone                      // body returned (or abort completed)
	stateAborting                  // being torn down
)

type resumeMsg struct{ abort bool }

// Proc is the handle a simulated process uses to interact with virtual
// time. All methods must be called only from the process's own goroutine
// while it holds the baton (which it always does between engine yields).
type Proc struct {
	id      int
	label   string
	eng     *Engine
	now     Time
	wakeAt  Time
	seq     uint64
	heapIdx int
	state   procState
	err     error
	resume  chan resumeMsg

	// waitingOn names the Cond the process is blocked on, for deadlock
	// diagnostics.
	waitingOn string
}

// ID reports the process's rank within its engine, 0..n-1.
func (p *Proc) ID() int { return p.id }

// Now reports the process's current virtual time.
func (p *Proc) Now() Time { return p.now }

// SetLabel attaches a human-readable name used in diagnostics.
func (p *Proc) SetLabel(l string) { p.label = l }

// Label returns the diagnostic name of the process.
func (p *Proc) Label() string { return p.label }

// Fail aborts the whole simulation with the given error. It does not
// return.
func (p *Proc) Fail(format string, args ...any) {
	panic(fmt.Errorf(format, args...))
}

// Sleep advances the process's virtual clock by d, yielding to any other
// process whose wake time falls inside the interval. Sleeping for a
// non-positive duration still yields once, giving equal-time processes a
// chance to run (deterministically ordered by queue sequence).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.now.Add(d))
}

// SleepUntil blocks the process until virtual time t. If t is in the
// past the process yields and resumes at its current time.
func (p *Proc) SleepUntil(t Time) {
	if t < p.now {
		t = p.now
	}
	e := p.eng
	// Fast path: if no queued process wakes at or before t, the scheduler
	// would pop this process straight back, so the heap round-trip and
	// the two channel handoffs can be skipped. The comparison is strict
	// because an already-queued process with the same wake time carries a
	// smaller sequence number and must run first.
	if e.queue.Len() == 0 || e.queue[0].wakeAt > t {
		if e.needsAdvance() {
			e.notifyAdvance(e.clock, t)
		}
		if m := e.metrics; m != nil {
			m.FastAdvances.Inc()
			if t > e.clock {
				m.Advances.Inc()
			}
		}
		e.clock = t
		p.wakeAt = t
		p.now = t
		return
	}
	e.push(p, t)
	p.yield()
}

// yield hands the baton back to the engine and waits to be resumed. On
// resume the process's clock is set to its scheduled wake time.
func (p *Proc) yield() {
	p.eng.yieldCh <- p
	p.waitResume()
}

func (p *Proc) waitResume() {
	msg := <-p.resume
	if msg.abort {
		panic(abortError{cause: fmt.Errorf("engine teardown")})
	}
	p.state = stateRunning
	p.now = p.wakeAt
}

// Cond is a waitable condition in virtual time. A process parks on a
// Cond with Wait; any running process may release waiters with Wake or
// WakeAt. Unlike sync.Cond there is no separate mutex: the engine's
// one-runner-at-a-time discipline already serialises all state.
type Cond struct {
	name    string
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition attached to the engine. The name appears
// in deadlock reports.
func (e *Engine) NewCond(name string) *Cond {
	return &Cond{name: name, eng: e}
}

// Wait parks the calling process until another process wakes the Cond.
// The caller must re-check its predicate after Wait returns: wake-ups
// are broadcasts, and another waiter may have consumed the state change.
func (p *Proc) Wait(c *Cond) {
	if c.eng != p.eng {
		p.Fail("des: %s waited on a Cond from a different engine", p.label)
	}
	p.state = stateBlocked
	p.waitingOn = c.name
	c.waiters = append(c.waiters, p)
	p.yield()
	p.waitingOn = ""
}

// WaitFor parks the calling process until pred() is true, re-checking
// after every wake-up of c. pred is evaluated with the baton held, so it
// may freely read shared simulation state.
func (p *Proc) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		p.Wait(c)
	}
}

// Wake releases all current waiters at the caller's current time.
func (c *Cond) Wake(now Time) { c.WakeAt(now) }

// WakeAt releases all current waiters; each resumes at max(its own
// time, at, the engine clock). at may be in the future relative to the
// engine clock (e.g. a message that is still in flight). An at in the
// past is clamped to the present: the wake-up itself happens now, and
// information never travels backwards in virtual time.
func (c *Cond) WakeAt(at Time) {
	if len(c.waiters) == 0 {
		return
	}
	at = maxTime(at, c.eng.clock)
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, w := range ws {
		c.eng.push(w, maxTime(w.now, at))
	}
}

// WaiterCount reports how many processes are parked on the Cond.
func (c *Cond) WaiterCount() int { return len(c.waiters) }
