package mpiio

import (
	"testing"

	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simfs"
)

var planSink *tpPlan

// BenchmarkTwoPhasePlan measures building one two-phase plan for 16
// ranks whose strided views interleave 1 kB blocks (b_eff_io's
// scattering pattern type 0): 1024 extents per rank, 4 aggregators.
func BenchmarkTwoPhasePlan(b *testing.B) {
	const n, block = 16, kB
	deposits := make([][]extent, n)
	for r := range deposits {
		v := View{Disp: int64(r) * block, BlockLen: block, Stride: n * block}
		deposits[r] = v.appendExtents(nil, 0, mB)
	}
	stripe := testFSCfg().StripeUnit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSink = newPlan(n)
		planSink.fill(deposits, 4, stripe)
	}
}

// BenchmarkCollectiveWrite measures one collective write of 64 kB per
// rank through a strided view on 4 ranks: size exchange, plan,
// shuffle, aggregator disk access and the closing barrier, with the
// file opened once.
func BenchmarkCollectiveWrite(b *testing.B) {
	const n = 4
	fs := simfs.MustNew(testFSCfg())
	net := newTestNet(n)
	b.ReportAllocs()
	b.ResetTimer()
	err := mpi.Run(mpi.WorldConfig{Net: net}, func(c *mpi.Comm) {
		f, err := Open(c, fs, "bench", ModeCreate|ModeWrOnly, Info{})
		if err != nil {
			c.Proc().Fail("%v", err)
		}
		f.SetView(View{Disp: int64(c.Rank()) * kB, BlockLen: kB, Stride: n * kB})
		for i := 0; i < b.N; i++ {
			f.WriteAll(64*kB, nil)
		}
		f.Close()
	})
	if err != nil {
		b.Fatal(err)
	}
}
