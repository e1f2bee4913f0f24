package des

import "fmt"

type procState int8

const (
	stateQueued  procState = iota // in the run queue with a wake time
	stateRunning                  // popped by Run's loop
	stateBlocked                  // parked on a Cond
	stateDone                     // body returned or unwound
)

// Proc is the handle a simulated process uses to interact with virtual
// time. Its methods must be called only from the process's own body,
// which runs only while Run has resumed it, or from the Step of a
// Stepper the process awaits (see Await), which Run's loop may run on
// its own goroutine; a Step must not call the blocking ones (Sleep,
// SleepUntil, Wait, WaitFor, Await).
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

	// stepper is the wait a process suspended in Await hands to Run's
	// loop; nil when the process is to be resumed on its next pop.
	stepper Stepper
	once    parkOnce // Wait's Stepper

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
func (p *Proc) SleepUntil(t Time) { p.advance(t, true) }

// advance is the one sleep path. It moves the process to time t (or its
// current time, if t is earlier) and reports whether the process is at t
// on return. When it cannot move on the spot it queues the process at
// t; with block set it then yields until Run's loop pops it and reports
// true, without it reports false and the caller must give up control.
// Sleep and SleepUntil inline to this one call, so their fast path costs
// a single call.
//
// The fast path applies when no queued process wakes at or before t:
// Run's loop would pop this process straight back, so the heap
// round-trip and both coroutine switches are skipped. The comparison is
// strict because an already-queued process with the same wake time
// carries a smaller sequence number and must run first.
func (p *Proc) advance(t Time, block bool) bool {
	if t < p.now {
		t = p.now
	}
	e := p.eng
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
		return true
	}
	e.push(p, t)
	if block {
		p.yield()
	}
	return block
}

// Stepper is the rest of a blocking call, handed to the engine with
// Proc.Await. Each Step says how the wait goes on: it is over (done),
// the process parks on c until c is woken, or (c nil) it sleeps until
// at, with SleepUntil's semantics. After the park or the sleep the
// engine calls Step again, with the process's clock moved on.
//
// Only an Await's first Step runs in the process's coroutine; later
// ones run on Run's goroutine, when Run's loop pops the process. A Step
// may use the awaiting process's Proc (Now, Fail) and touch shared
// simulation state as the body could, but must not block: no Sleep,
// Wait or Await inside a Step.
type Stepper interface {
	Step() (at Time, c *Cond, done bool)
}

// Await blocks the process until s reports done. The coroutine is
// resumed once, when the wait is over, however many parks and sleeps
// the wait takes: every step after the first runs as Run's loop pops
// the process. The schedule — every push and pop of the run queue, in
// order — is the one the same steps written out with Wait and
// SleepUntil would give.
func (p *Proc) Await(s Stepper) {
	if p.drive(s) {
		return
	}
	p.stepper = s
	p.yield()
}

// drive runs s's steps until the wait is over (true) or a step has
// parked or queued the process (false).
func (p *Proc) drive(s Stepper) bool {
	for {
		at, c, done := s.Step()
		switch {
		case done:
			return true
		case c != nil:
			p.park(c)
			return false
		case !p.advance(at, false):
			return false
		}
	}
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
	// The Stepper lives in the Proc, so handing it over allocates
	// nothing.
	p.once = parkOnce{c: c}
	p.Await(&p.once)
}

// parkOnce is Wait's Stepper: park on c, and be done once woken.
type parkOnce struct {
	c      *Cond
	parked bool
}

func (w *parkOnce) Step() (Time, *Cond, bool) {
	if w.parked {
		return 0, nil, true
	}
	w.parked = true
	return 0, w.c, false
}

// park is the one parking path: it blocks the process on c until a
// WakeAt queues it again.
func (p *Proc) park(c *Cond) {
	if c.eng != p.eng {
		p.Fail("des: %s waited on a Cond from a different engine", p.Label())
	}
	p.state = stateBlocked
	p.waitingOn = c.name
	c.waiters = append(c.waiters, p)
}

// WaitFor parks the calling process until pred() is true, re-checking
// after every wake-up of c. pred is evaluated while the process runs, so
// it may freely read shared simulation state. It is a loop of Waits, so
// the check stays in the coroutine and pred does not escape: a capturing
// closure costs no allocation. A wait whose every step should run on
// Run's goroutine hands a Stepper to Await instead.
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
