package des

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpcbench/beff/internal/obs"
)

// TestDispatchSequencePinned pins the exact order in which processes
// hold the baton, and the engine clock each time, for a scenario that
// mixes equal-time Sleep ties, a Cond.WaitFor released by a WakeAt into
// the future, a zero-length Sleep that takes the fast path, a zero-length
// Sleep that must yield to an equal-time peer, and a process that
// finishes while others are still queued. The expected list is worked
// out by hand from the (wakeAt, seq) pop order; any change to it is a
// change to every simulated result.
func TestDispatchSequencePinned(t *testing.T) {
	e := NewEngine()
	m := &Metrics{Dispatches: new(obs.Counter), FastAdvances: new(obs.Counter)}
	e.SetMetrics(m)
	c := e.NewCond("c")
	ready := false
	var got []string
	mark := func(p *Proc) { got = append(got, fmt.Sprintf("%d@%d", p.ID(), e.Now())) }
	err := e.Run(4, func(p *Proc) {
		mark(p)
		switch p.ID() {
		case 0:
			p.Sleep(10)
			mark(p)
			p.Sleep(10)
			mark(p)
			p.Sleep(5)
			mark(p)
		case 1:
			p.Sleep(10) // ties with proc 0 at 10; proc 0 queued first
			mark(p)
			ready = true
			c.WakeAt(p.Now().Add(15))
			p.Sleep(0) // nothing queued at or before 10: fast path
			mark(p)
			// Returns at 10 with procs 3, 0 and 2 still queued.
		case 2:
			p.WaitFor(c, func() bool { return ready })
			mark(p)
			p.Sleep(0) // proc 3 is queued at 25 with a smaller seq
			mark(p)
		case 3:
			p.Sleep(20)
			mark(p)
			p.Sleep(5)
			mark(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"0@0", "1@0", "2@0", "3@0",
		"0@10", "1@10", "1@10",
		"3@20", "0@20",
		"2@25", "3@25", "0@25", "2@25",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dispatch sequence\n got %v\nwant %v", got, want)
	}
	if d := m.Dispatches.Value(); d != 12 {
		t.Errorf("dispatches = %d, want 12", d)
	}
	if f := m.FastAdvances.Value(); f != 1 {
		t.Errorf("fast advances = %d, want 1", f)
	}
}

// TestRunLeaksNoGoroutines checks that every process coroutine exits
// however a run ends, including processes that were never activated
// before the run aborted, and that each activated process runs its
// body's defers exactly once. Run stops every coroutine before it
// returns, so the goroutine count is checked once, right after Run; it
// may only be lower, when a goroutine of an earlier test was still
// exiting at the first reading.
func TestRunLeaksNoGoroutines(t *testing.T) {
	const n = 8
	cases := []struct {
		name    string
		body    func(c *Cond) func(p *Proc)
		wantErr string
	}{
		{"fail before others start", func(c *Cond) func(p *Proc) {
			return func(p *Proc) { p.Fail("stop at %d", p.ID()) }
		}, "stop at 0"},
		{"panic mid-run", func(c *Cond) func(p *Proc) {
			return func(p *Proc) {
				p.Sleep(Duration(p.ID()))
				if p.ID() == 3 {
					panic("boom")
				}
				if p.ID()%2 == 0 {
					p.Wait(c)
				}
				p.Sleep(Second)
			}
		}, "boom"},
		{"deadlock", func(c *Cond) func(p *Proc) {
			return func(p *Proc) {
				if p.ID() != 5 {
					p.Wait(c)
				}
			}
		}, "deadlock"},
		{"deadlock inside Await", func(c *Cond) func(p *Proc) {
			return func(p *Proc) {
				if p.ID() == 5 {
					return
				}
				// The first step sleeps, so the park that never ends
				// happens on Run's goroutine.
				slept := false
				p.Await(stepFunc(func() (Time, *Cond, bool) {
					if !slept {
						slept = true
						return p.Now().Add(Duration(p.ID())), nil, false
					}
					return 0, c, false
				}))
			}
		}, "deadlock"},
		{"clean", func(c *Cond) func(p *Proc) {
			return func(p *Proc) {
				p.Sleep(Duration(n - p.ID()))
				c.WakeAt(p.Now())
			}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			body := tc.body(e.NewCond("c"))
			var activated, deferred [n]int
			err := e.Run(n, func(p *Proc) {
				activated[p.ID()]++
				defer func() { deferred[p.ID()]++ }()
				body(p)
			})
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before Run, %d after", before, after)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want it to mention %q", err, tc.wantErr)
			}
			if activated[0] != 1 {
				t.Errorf("proc 0 activated %d times, want 1", activated[0])
			}
			for i := range activated {
				if activated[i] > 1 || deferred[i] != activated[i] {
					t.Errorf("proc %d: activated %d times, ran its defers %d times", i, activated[i], deferred[i])
				}
			}
		})
	}
}

// TestGoexitInBodyExitsRunsCaller checks that a runtime.Goexit inside a
// body (what t.FailNow does) exits Run's calling goroutine rather than
// hanging Run, and that Run still stops every other process on the way
// out: each runs its defers once, and no goroutine is left behind.
func TestGoexitInBodyExitsRunsCaller(t *testing.T) {
	const n = 8
	before := runtime.NumGoroutine()
	after := make(chan int, 1)
	returned, deferred := false, 0
	go func() {
		// Run's own deferred teardown has finished by the time this
		// runs; the only goroutine Run may leave is this one.
		defer func() { after <- runtime.NumGoroutine() }()
		e := NewEngine()
		c := e.NewCond("c")
		e.Run(n, func(p *Proc) {
			defer func() { deferred++ }()
			p.Sleep(Duration(p.ID()))
			if p.ID() == 3 {
				runtime.Goexit()
			}
			p.Wait(c)
		})
		returned = true
	}()
	select {
	case got := <-after:
		if returned {
			t.Error("Run returned after a body called runtime.Goexit")
		}
		if deferred != n {
			t.Errorf("%d of %d processes ran their defers", deferred, n)
		}
		if got > before+1 {
			t.Errorf("goroutines: %d before Run, %d after (want %d: only Run's caller)", before, got, before+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run's caller still running 5s after a body called runtime.Goexit")
	}
}

// stepFunc adapts a function to Stepper.
type stepFunc func() (Time, *Cond, bool)

func (f stepFunc) Step() (Time, *Cond, bool) { return f() }

// scriptOp is one instruction of a differential-test script.
type scriptOp struct {
	kind byte     // 's' sleep, 'w' wait, 'k' wake
	d    Duration // sleep length, or wake time relative to now (negative: stale)
	c    int      // Cond index of a wait or a wake
	need int      // a wait lasts until wakes[c] >= need
}

// runScript runs one script per process and records every
// "proc@clock" point at which a blocking op returned, the clock
// advances the OnAdvance hook saw, the error, and the metrics. With
// await set, each process runs its whole script as one Await; without,
// it makes one blocking call per op (SleepUntil, WaitFor), and its
// coroutine is resumed after each.
func runScript(scripts [][]scriptOp, await bool) (marks []string, m *Metrics, err error) {
	e := NewEngine()
	m = &Metrics{Dispatches: new(obs.Counter), Resumes: new(obs.Counter),
		Advances: new(obs.Counter), FastAdvances: new(obs.Counter), HeapDepthMax: new(obs.Gauge)}
	e.SetMetrics(m)
	e.OnAdvance(func(from, to Time) { marks = append(marks, fmt.Sprintf("adv %d->%d", from, to)) })
	conds := []*Cond{e.NewCond("c0"), e.NewCond("c1")}
	wakes := make([]int, len(conds))
	mark := func(p *Proc) { marks = append(marks, fmt.Sprintf("%d@%d", p.ID(), e.Now())) }
	wake := func(p *Proc, o scriptOp) {
		wakes[o.c]++
		conds[o.c].WakeAt(p.Now().Add(o.d))
	}
	err = e.Run(len(scripts), func(p *Proc) {
		ops := scripts[p.ID()]
		if !await {
			for _, o := range ops {
				switch o.kind {
				case 's':
					p.SleepUntil(p.Now().Add(o.d))
					mark(p)
				case 'w':
					p.WaitFor(conds[o.c], func() bool { return wakes[o.c] >= o.need })
					mark(p)
				case 'k':
					wake(p, o)
				}
			}
			return
		}
		i, slept := 0, false
		p.Await(stepFunc(func() (Time, *Cond, bool) {
			if slept {
				slept = false
				mark(p)
				i++
			}
			for ; i < len(ops); i++ {
				switch o := ops[i]; o.kind {
				case 's':
					slept = true
					return p.Now().Add(o.d), nil, false
				case 'w':
					if wakes[o.c] < o.need {
						return 0, conds[o.c], false
					}
					mark(p)
				case 'k':
					wake(p, o)
				}
			}
			return 0, nil, true
		}))
	})
	return marks, m, err
}

// TestAwaitMatchesCoroutineSchedule is the differential test of Await:
// scripts of sleeps, Cond waits and wakes run once as blocking calls in
// the coroutine and once as one Await per process must give the same
// (proc, clock) sequence, the same clock advances, the same error and
// the same pop counts, with fewer coroutine resumes. The scripts mix
// equal-time ties, zero and fast-path sleeps, future and stale WakeAt
// times, and waits that never end (deadlocks).
func TestAwaitMatchesCoroutineSchedule(t *testing.T) {
	hand := [][]scriptOp{
		{{kind: 's', d: 10}, {kind: 's', d: 0}, {kind: 'w', c: 0, need: 1}, {kind: 's', d: 5}},
		{{kind: 's', d: 10}, {kind: 'k', c: 0, d: -7}, {kind: 's', d: 0}, {kind: 'k', c: 1, d: 4}},
		{{kind: 'w', c: 1, need: 1}, {kind: 's', d: 0}, {kind: 's', d: 3}},
		{{kind: 's', d: 0}, {kind: 's', d: 10}, {kind: 's', d: 4}},
	}
	scripts := [][][]scriptOp{hand}
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	sleeps := []Duration{0, 0, 1, 2, 5, 10}
	offsets := []Duration{-5, 0, 0, 3}
	for k := 0; k < 300; k++ {
		procs := make([][]scriptOp, 2+next(5))
		for i := range procs {
			for j := 3 + next(8); j > 0; j-- {
				switch next(3) {
				case 0:
					procs[i] = append(procs[i], scriptOp{kind: 's', d: sleeps[next(len(sleeps))]})
				case 1:
					procs[i] = append(procs[i], scriptOp{kind: 'w', c: next(2), need: 1 + next(3)})
				default:
					procs[i] = append(procs[i], scriptOp{kind: 'k', c: next(2), d: offsets[next(len(offsets))]})
				}
			}
		}
		scripts = append(scripts, procs)
	}
	deadlocks, fast := 0, int64(0)
	for k, sc := range scripts {
		want, wm, werr := runScript(sc, false)
		got, gm, gerr := runScript(sc, true)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("script %d: error %v through Await, %v through the coroutine", k, gerr, werr)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("script %d: schedule differs\nAwait     %v\ncoroutine %v", k, got, want)
		}
		for _, c := range []struct {
			name     string
			got, wnt int64
		}{
			{"dispatches", gm.Dispatches.Value(), wm.Dispatches.Value()},
			{"advances", gm.Advances.Value(), wm.Advances.Value()},
			{"fast advances", gm.FastAdvances.Value(), wm.FastAdvances.Value()},
		} {
			if c.got != c.wnt {
				t.Fatalf("script %d: %s %v through Await, %v through the coroutine", k, c.name, c.got, c.wnt)
			}
		}
		if gm.HeapDepthMax.Value() != wm.HeapDepthMax.Value() {
			t.Fatalf("script %d: heap depth %d through Await, %d through the coroutine", k, gm.HeapDepthMax.Value(), wm.HeapDepthMax.Value())
		}
		if gm.Resumes.Value() > wm.Resumes.Value() {
			t.Fatalf("script %d: %v resumes through Await, more than the coroutine's %v", k, gm.Resumes.Value(), wm.Resumes.Value())
		}
		if werr != nil {
			deadlocks++
		}
		fast += wm.FastAdvances.Value()
	}
	// The generator must reach both endings and the fast path, or the
	// comparison proves less than it claims.
	if deadlocks == 0 || deadlocks == len(scripts) || fast == 0 {
		t.Fatalf("scripts too uniform: %d of %d deadlock, %d fast advances", deadlocks, len(scripts), fast)
	}
}

// TestPanicInStepFailsRun checks that a panic in a Step fails the run
// and names the process, whether the step runs in the coroutine (the
// first) or on Run's goroutine (after a sleep), and that every process
// that started runs its defers once.
func TestPanicInStepFailsRun(t *testing.T) {
	for _, first := range []bool{true, false} {
		e := NewEngine()
		c := e.NewCond("c")
		var activated, deferred [4]int
		err := e.Run(4, func(p *Proc) {
			activated[p.ID()]++
			defer func() { deferred[p.ID()]++ }()
			if p.ID() != 2 {
				p.Wait(c)
				return
			}
			slept := first
			p.Await(stepFunc(func() (Time, *Cond, bool) {
				if !slept {
					slept = true
					return p.Now().Add(Microsecond), nil, false
				}
				p.Fail("step failed at %v", p.Now())
				return 0, nil, true
			}))
		})
		want := "des: proc 2 panicked: step failed at 0ns"
		if !first {
			want = "des: proc 2 panicked: step failed at 1.000us"
		}
		if err == nil || err.Error() != want {
			t.Errorf("first=%v: err = %v, want %q", first, err, want)
		}
		for i, d := range deferred {
			if d != activated[i] || activated[i] > 1 {
				t.Errorf("first=%v: proc %d started %d times, ran its defers %d times", first, i, activated[i], d)
			}
		}
	}
}
