package simnet

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
)

// FatTree is a two-level folded-Clos switch: processors hang off leaf
// switches; leaves reach each other through spine switches over a
// configurable number of uplinks. Static (hash-based) routing pins
// each source-destination pair to one uplink, so hotspots and
// oversubscription behave like they do on real multistage switches —
// the fabric family of the IBM SP and of commodity clusters.
type FatTree struct {
	n        int
	leafSize int // processors per leaf switch
	uplinks  int // uplinks per leaf (== downlinks); < leafSize means oversubscription
	up       [][]*Resource
	down     [][]*Resource
	intraLat des.Duration
	interLat des.Duration
}

// FatTreeConfig sizes a FatTree.
type FatTreeConfig struct {
	Procs    int
	LeafSize int // processors per leaf switch
	Uplinks  int // uplinks per leaf; LeafSize/Uplinks is the oversubscription factor
	LinkBW   float64
	IntraLat des.Duration // same-leaf latency
	InterLat des.Duration // cross-leaf latency (two extra hops)
}

// NewFatTree validates and builds the switch.
func NewFatTree(cfg FatTreeConfig) *FatTree {
	if cfg.Procs < 1 || cfg.LeafSize < 1 || cfg.Uplinks < 1 {
		panic(fmt.Sprintf("simnet: invalid fat tree %+v", cfg))
	}
	leaves := (cfg.Procs + cfg.LeafSize - 1) / cfg.LeafSize
	ft := &FatTree{
		n:        cfg.Procs,
		leafSize: cfg.LeafSize,
		uplinks:  cfg.Uplinks,
		intraLat: cfg.IntraLat,
		interLat: cfg.InterLat,
	}
	for l := 0; l < leaves; l++ {
		var ups, downs []*Resource
		for u := 0; u < cfg.Uplinks; u++ {
			ups = append(ups, NewResource(fmt.Sprintf("up[l%d,%d]", l, u), cfg.LinkBW))
			downs = append(downs, NewResource(fmt.Sprintf("down[l%d,%d]", l, u), cfg.LinkBW))
		}
		ft.up = append(ft.up, ups)
		ft.down = append(ft.down, downs)
	}
	return ft
}

// NumProcs reports the processor count.
func (ft *FatTree) NumProcs() int { return ft.n }

// LeafOf reports which leaf switch a processor hangs off.
func (ft *FatTree) LeafOf(proc int) int { return proc / ft.leafSize }

// routeIndex picks the uplink a pair's traffic uses: static routing, a
// cheap stable hash of (src, dst).
func (ft *FatTree) routeIndex(src, dst int) int {
	h := uint32(src)*2654435761 ^ uint32(dst)*40503
	return int(h % uint32(ft.uplinks))
}

// Path routes same-leaf traffic directly through the leaf crossbar and
// cross-leaf traffic over one uplink and one downlink.
func (ft *FatTree) Path(segs []Segment, src, dst int) ([]Segment, des.Duration) {
	sl, dl := ft.LeafOf(src), ft.LeafOf(dst)
	if sl == dl {
		return segs, ft.intraLat
	}
	r := ft.routeIndex(src, dst)
	return append(segs, Seg(ft.up[sl][r]), Seg(ft.down[dl][r])), ft.interLat
}

// Resources lists every switch link for utilisation diagnostics.
func (ft *FatTree) Resources() []*Resource {
	var rs []*Resource
	for l := range ft.up {
		rs = append(rs, ft.up[l]...)
		rs = append(rs, ft.down[l]...)
	}
	return rs
}
