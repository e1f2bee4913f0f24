package des

import "testing"

// BenchmarkEngineHandoff measures a Sleep with nothing else queued:
// the SleepUntil fast path, which never leaves the process's coroutine.
func BenchmarkEngineHandoff(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	err := e.Run(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineTwoProcPingPong measures a condition-variable
// hand-off between two processes: one dispatch per iteration, that is
// one yield back to Run's loop and one coroutine resume.
func BenchmarkEngineTwoProcPingPong(b *testing.B) {
	e := NewEngine()
	c := e.NewCond("pp")
	turn := 0
	b.ResetTimer()
	err := e.Run(2, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.WaitFor(c, func() bool { return turn%2 == p.ID() })
			turn++
			c.WakeAt(p.Now())
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineManyProcs measures scheduling with a large runnable
// set (heap churn).
func BenchmarkEngineManyProcs(b *testing.B) {
	const n = 256
	e := NewEngine()
	b.ResetTimer()
	err := e.Run(n, func(p *Proc) {
		iters := b.N / n
		if iters == 0 {
			iters = 1
		}
		for i := 0; i < iters; i++ {
			p.Sleep(Duration(1 + p.ID()%7))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
