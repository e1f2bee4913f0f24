package simnet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hpcbench/beff/internal/des"
)

// routeString renders a composed route by resource name and factor, so
// routes of two separately built nets can be compared.
func routeString(segs []Segment, lat des.Duration) string {
	var sb strings.Builder
	for _, s := range segs {
		fmt.Fprintf(&sb, "%s*%g ", s.R.Name(), s.Factor)
	}
	fmt.Fprintf(&sb, "lat %d", lat)
	return sb.String()
}

// TestUncachedRoutesMatchCached builds every fabric family twice: once
// with the per-pair route cache and once with pathRows nil, the path
// machines above maxPathCacheProcs take. Every pair must compose the
// same segments and latency, and Latency must agree. The cached net is
// read twice, so a cached route that aliased the compose scratch buffer
// would come back as some later pair's route on the second pass.
func TestUncachedRoutesMatchCached(t *testing.T) {
	us := des.Microsecond
	fabrics := []struct {
		name  string
		build func() Fabric
	}{
		{"torus", func() Fabric { return NewTorus3D(4, 3, 2, 100*MB, us, 80) }},
		{"smp", func() Fabric {
			return NewSMPCluster(SMPClusterConfig{Nodes: 5, ProcsPerNode: 4,
				BusBandwidth: 1e9, AdapterBandwidth: 150 * MB, IntraLatency: us, InterLatency: 9 * us})
		}},
		{"smp-spine", func() Fabric {
			return NewSMPCluster(SMPClusterConfig{Nodes: 5, ProcsPerNode: 4, IntraCopies: 1,
				BusBandwidth: 1e9, AdapterBandwidth: 150 * MB, SpineBandwidth: 400 * MB,
				IntraLatency: us, InterLatency: 9 * us})
		}},
		{"fattree", func() Fabric {
			return NewFatTree(FatTreeConfig{Procs: 18, LeafSize: 4, Uplinks: 3, LinkBW: 100 * MB,
				IntraLat: us, InterLat: 5 * us})
		}},
		{"crossbar", func() Fabric { return NewCrossbar(6, 0, us) }},
		{"crossbar-capped", func() Fabric { return NewCrossbar(6, 300*MB, us) }},
		{"dragonfly", func() Fabric {
			return NewDragonfly(DragonflyConfig{Procs: 26, RoutersPerGroup: 3, ProcsPerRouter: 2,
				LocalBW: 200 * MB, GlobalBW: 50 * MB, LocalLat: us, GlobalLat: 3 * us})
		}},
	}
	for _, f := range fabrics {
		for _, ports := range []float64{0, 500 * MB} {
			t.Run(fmt.Sprintf("%s/port=%g", f.name, ports), func(t *testing.T) {
				build := func() *Net {
					return New(Config{Fabric: f.build(), TxBandwidth: 100 * MB, RxBandwidth: 100 * MB,
						PortBandwidth: ports, SendOverhead: 2 * us, RecvOverhead: 3 * us})
				}
				cached, uncached := build(), build()
				uncached.pathRows = nil
				np := cached.NumProcs()
				want := make(map[[2]int]string)
				for pass := 0; pass < 2; pass++ {
					for src := 0; src < np; src++ {
						for dst := 0; dst < np; dst++ {
							if lc, lu := cached.Latency(src, dst), uncached.Latency(src, dst); lc != lu {
								t.Fatalf("pass %d: Latency(%d,%d) = %v cached, %v uncached", pass, src, dst, lc, lu)
							}
							if src == dst {
								continue
							}
							got := routeString(cached.pathFor(src, dst))
							u := routeString(uncached.pathFor(src, dst))
							if pass == 0 {
								want[[2]int{src, dst}] = u
							}
							if got != u || u != want[[2]int{src, dst}] {
								t.Fatalf("pass %d: route %d->%d\ncached   %s\nuncached %s\nfirst    %s",
									pass, src, dst, got, u, want[[2]int{src, dst}])
							}
						}
					}
				}
			})
		}
	}
}
