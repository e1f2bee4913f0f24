package perturb_test

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/simnet"
)

// Example runs a small ring exchange twice — once clean, once under a
// seeded OS-noise profile — and prints both virtual elapsed times. The
// perturbed run is slower, and because every fault decision is a pure
// function of (seed, entity, time window), its output is byte-stable:
// the same seed reproduces exactly this timing on any machine, at any
// sweep parallelism.
func Example() {
	ring := func(prof *perturb.Profile, seed int64) des.Duration {
		net := simnet.New(simnet.Config{
			Fabric:       simnet.NewCrossbar(4, 0, 2*des.Microsecond),
			TxBandwidth:  100e6,
			RxBandwidth:  100e6,
			SendOverhead: 5 * des.Microsecond,
			RecvOverhead: 5 * des.Microsecond,
		})
		prof.ApplyNet(net, seed)

		var elapsed des.Duration
		err := mpi.Run(mpi.WorldConfig{Net: net}, func(c *mpi.Comm) {
			const msg = 64 << 10
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() + c.Size() - 1) % c.Size()
			for i := 0; i < 10; i++ {
				c.SendrecvBytes(right, 0, msg, left, 0)
			}
			c.Barrier()
			if c.Rank() == 0 {
				elapsed = des.DurationOf(c.Wtime())
			}
		})
		if err != nil {
			panic(err)
		}
		return elapsed
	}

	noise := &perturb.Profile{
		Noise: []perturb.NoiseFault{{Period: 1e-3, Detour: 2e-4, Jitter: true}},
	}
	fmt.Printf("clean ring: %v\n", ring(nil, 0))
	fmt.Printf("noisy ring: %v\n", ring(noise, 42))

	// Output:
	// clean ring: 6.938ms
	// noisy ring: 7.787ms
}
