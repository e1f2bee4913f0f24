package mpi

import (
	"testing"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/simnet"
)

func benchNet(n int) *simnet.Net {
	return simnet.New(simnet.Config{
		Fabric:       simnet.NewCrossbar(n, 0, des.Microsecond),
		TxBandwidth:  1e9,
		RxBandwidth:  1e9,
		SendOverhead: des.Microsecond,
		RecvOverhead: des.Microsecond,
	})
}

// BenchmarkEagerMessage measures one eager send/recv round (host cost
// of the whole MPI+engine+network stack per message).
func BenchmarkEagerMessage(b *testing.B) {
	err := Run(WorldConfig{Net: benchNet(2)}, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.SendBytes(1, 0, 1024)
			} else {
				c.RecvBytes(0, 0)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRendezvousMessage measures one rendezvous round.
func BenchmarkRendezvousMessage(b *testing.B) {
	err := Run(WorldConfig{Net: benchNet(2)}, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.SendBytes(1, 0, 1<<20)
			} else {
				c.RecvBytes(0, 0)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier64 measures a 64-process dissemination barrier.
func BenchmarkBarrier64(b *testing.B) {
	err := Run(WorldConfig{Net: benchNet(64)}, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRingExchange32 measures one full nonblocking ring exchange
// on 32 processes — the b_eff inner loop.
func BenchmarkRingExchange32(b *testing.B) {
	const n = 32
	err := Run(WorldConfig{Net: benchNet(n)}, func(c *Comm) {
		r, l := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		for i := 0; i < b.N; i++ {
			reqs := []*Request{
				c.IrecvBytes(r, 0), c.IrecvBytes(l, 1),
				c.IsendBytes(l, 0, 4096), c.IsendBytes(r, 1, 4096),
			}
			c.Waitall(reqs)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce64 measures a one-element max-reduction on 64
// processes: the reduce-then-broadcast that closes every b_eff timing
// loop.
func BenchmarkAllreduce64(b *testing.B) {
	err := Run(WorldConfig{Net: benchNet(64)}, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			AllreduceValue(c, OpMax, float64(c.Rank()+i))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
