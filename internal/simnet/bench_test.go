package simnet

import (
	"math/rand"
	"testing"

	"github.com/hpcbench/beff/internal/des"
)

// benchTransfers books b.N transfers of 4 KiB over a fixed seeded set of
// distinct-processor pairs, each starting when the previous sender was
// free, so reservations arrive in nondecreasing virtual time as they do
// in a simulation.
func benchTransfers(b *testing.B, n *Net) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		src, dst := rng.Intn(n.NumProcs()), rng.Intn(n.NumProcs()-1)
		if dst >= src {
			dst++
		}
		pairs[i] = [2]int{src, dst}
	}
	var at des.Time
	for _, p := range pairs { // warm the route cache, if one is kept
		at, _ = n.Transfer(p[0], p[1], 4096, at)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		at, _ = n.Transfer(p[0], p[1], 4096, at)
	}
}

// BenchmarkTransferTorus measures one transfer on a 4×4×4 torus with
// memory ports: a route-cache hit plus the reservation of every NIC,
// port and link on the route.
func BenchmarkTransferTorus(b *testing.B) {
	benchTransfers(b, New(Config{
		Fabric:        NewTorus3D(4, 4, 4, 480e6, des.Microsecond, 80),
		TxBandwidth:   500e6,
		RxBandwidth:   500e6,
		PortBandwidth: 600e6,
		SendOverhead:  2 * des.Microsecond,
		RecvOverhead:  2 * des.Microsecond,
	}))
}

// BenchmarkTransferUncached measures one transfer on the shape of the
// 1344-processor IBM SP profile (336 four-way SMP nodes), above
// maxPathCacheProcs: every transfer composes its route afresh.
func BenchmarkTransferUncached(b *testing.B) {
	n := New(Config{
		Fabric: NewSMPCluster(SMPClusterConfig{
			Nodes: 336, ProcsPerNode: 4,
			BusBandwidth:     1.0e9,
			IntraCopies:      2,
			AdapterBandwidth: 150e6,
			IntraLatency:     3 * des.Microsecond,
			InterLatency:     18 * des.Microsecond,
		}),
		TxBandwidth:   300e6,
		RxBandwidth:   300e6,
		PortBandwidth: 320e6,
		SendOverhead:  8 * des.Microsecond,
		RecvOverhead:  8 * des.Microsecond,
	})
	if n.pathRows != nil {
		b.Fatal("the SP shape must be above maxPathCacheProcs")
	}
	benchTransfers(b, n)
}
