package des

import "fmt"

type procState int8

const (
	stateQueued  procState = iota // in the run queue with a wake time
	stateRunning                  // resumed by Run's loop
	stateBlocked                  // parked on a Cond
	stateDone                     // body returned or unwound
)

// Proc is the handle a simulated process uses to interact with virtual
// time. All methods must be called only from the process's own body,
// which runs only while Run has resumed it.
type Proc struct {
	id      int
	label   string
	eng     *Engine
	now     Time
	wakeAt  Time
	seq     uint64
	heapIdx int
	state   procState

	// next resumes the process's coroutine and stop unwinds it (see
	// iter.Pull); suspend is the coroutine's yield function, which
	// returns false once the process is being stopped.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool

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

// Label returns the diagnostic name of the process: the one set with
// SetLabel, or "proc <id>".
func (p *Proc) Label() string {
	if p.label == "" {
		return fmt.Sprintf("proc %d", p.id)
	}
	return p.label
}

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
	// Fast path: if no queued process wakes at or before t, Run's loop
	// would pop this process straight back, so the heap round-trip and
	// both coroutine switches are skipped. The comparison is strict
	// because an already-queued process with the same wake time carries
	// a smaller sequence number and must run first.
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

// yield suspends the process's coroutine, handing control back to
// Run's loop, until the loop resumes it. On resume the process's clock
// is set to its scheduled wake time. If Run is stopping the process
// instead, yield unwinds it with abortError.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(abortError{})
	}
	p.now = p.wakeAt
}

// Cond is a waitable condition in virtual time. A process parks on a
// Cond with Wait; any running process may release waiters with WakeAt.
// Unlike sync.Cond there is no separate mutex: the engine's
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
		p.Fail("des: %s waited on a Cond from a different engine", p.Label())
	}
	p.state = stateBlocked
	p.waitingOn = c.name
	c.waiters = append(c.waiters, p)
	p.yield()
	p.waitingOn = ""
}

// WaitFor parks the calling process until pred() is true, re-checking
// after every wake-up of c. pred is evaluated while the process runs, so
// it may freely read shared simulation state.
func (p *Proc) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		p.Wait(c)
	}
}

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
