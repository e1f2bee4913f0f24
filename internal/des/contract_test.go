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
