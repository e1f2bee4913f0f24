package core

import (
	"testing"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/obs"
)

// BenchmarkTimingLoop measures one b_eff timing loop per op on the t3e
// profile at 16 ranks, for each method: a barrier, four exchanges of
// 64 kB on the first ring pattern, and the max-reduction of the elapsed
// times. It reports the engine's pops (dispatches/op) and coroutine
// switches (resumes/op) per loop.
func BenchmarkTimingLoop(b *testing.B) {
	const n, L, looplength = 16, 64 << 10, 4
	p, err := machine.Lookup("t3e")
	if err != nil {
		b.Fatal(err)
	}
	pat := RingPatterns(n)[0]
	for m := Method(0); m < Method(NumMethods); m++ {
		b.Run(m.String(), func(b *testing.B) {
			w, err := p.BuildWorld(n)
			if err != nil {
				b.Fatal(err)
			}
			dm := &des.Metrics{Dispatches: new(obs.Counter), Resumes: new(obs.Counter)}
			w.Observe(mpi.Observer{OnEngine: func(e *des.Engine) { e.SetMetrics(dm) }})
			b.ReportAllocs()
			err = mpi.Run(w, func(c *mpi.Comm) {
				var s exchScratch
				for i := 0; i < b.N; i++ {
					if measureOnce(c, pat, L, m, looplength, &s) <= 0 {
						b.Errorf("rank %d: %v loop took no time", c.Rank(), m)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(dm.Dispatches.Value())/float64(b.N), "dispatches/op")
			b.ReportMetric(float64(dm.Resumes.Value())/float64(b.N), "resumes/op")
		})
	}
}
