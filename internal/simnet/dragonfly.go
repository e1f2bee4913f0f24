package simnet

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
)

// Dragonfly is the hierarchical direct topology of modern HPE
// Slingshot and Cray Aries machines: processors hang off routers,
// routers form all-to-all connected groups over local links, and the
// groups are connected all-to-all by long global (optical) links. With
// minimal routing every cross-group message takes at most one global
// hop — local, global, local — so the global links are the scarce,
// contended resource, exactly the property that distinguishes
// dragonflies from the paper-era tori and crossbars.
type Dragonfly struct {
	n          int
	routerSize int // processors per router
	perGroup   int // routers per group
	localLat   des.Duration
	globalLat  des.Duration

	// local[g] holds one Resource per unordered router pair of group g
	// (the all-to-all local links); global holds one Resource per
	// unordered group pair.
	local  [][]*Resource
	global []*Resource
	groups int
}

// DragonflyConfig sizes a Dragonfly.
type DragonflyConfig struct {
	Procs int
	// RoutersPerGroup is the a parameter (routers per group);
	// ProcsPerRouter the p parameter. Groups are filled sequentially.
	RoutersPerGroup int
	ProcsPerRouter  int
	// LocalBW and GlobalBW are the link bandwidths in bytes/second;
	// global links are typically the thinner, contended ones.
	LocalBW  float64
	GlobalBW float64
	// LocalLat is the latency of an intra-group route, GlobalLat of a
	// route taking the one global hop.
	LocalLat  des.Duration
	GlobalLat des.Duration
}

// NewDragonfly validates and builds the topology.
func NewDragonfly(cfg DragonflyConfig) *Dragonfly {
	if cfg.Procs < 1 || cfg.RoutersPerGroup < 1 || cfg.ProcsPerRouter < 1 {
		panic(fmt.Sprintf("simnet: invalid dragonfly %+v", cfg))
	}
	routers := (cfg.Procs + cfg.ProcsPerRouter - 1) / cfg.ProcsPerRouter
	groups := (routers + cfg.RoutersPerGroup - 1) / cfg.RoutersPerGroup
	d := &Dragonfly{
		n:          cfg.Procs,
		routerSize: cfg.ProcsPerRouter,
		perGroup:   cfg.RoutersPerGroup,
		localLat:   cfg.LocalLat,
		globalLat:  cfg.GlobalLat,
		groups:     groups,
	}
	a := cfg.RoutersPerGroup
	for g := 0; g < groups; g++ {
		links := make([]*Resource, a*a)
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				r := NewResource(fmt.Sprintf("local[g%d,%d-%d]", g, i, j), cfg.LocalBW)
				links[i*a+j] = r
				links[j*a+i] = r
			}
		}
		d.local = append(d.local, links)
	}
	d.global = make([]*Resource, groups*groups)
	for i := 0; i < groups; i++ {
		for j := i + 1; j < groups; j++ {
			r := NewResource(fmt.Sprintf("global[%d-%d]", i, j), cfg.GlobalBW)
			d.global[i*groups+j] = r
			d.global[j*groups+i] = r
		}
	}
	return d
}

// NumProcs reports the processor count.
func (d *Dragonfly) NumProcs() int { return d.n }

// RouterOf reports the router a processor hangs off.
func (d *Dragonfly) RouterOf(proc int) int { return proc / d.routerSize }

// localLink returns the all-to-all link between two routers of one
// group, nil when they are the same router.
func (d *Dragonfly) localLink(group, ri, rj int) *Resource {
	if ri == rj {
		return nil
	}
	return d.local[group][ri*d.perGroup+rj]
}

// gateway picks the router of group g that terminates the global link
// towards group h: the canonical minimal-routing spread that assigns
// each peer group to a router round-robin, so global traffic fans out
// over the group's routers instead of funnelling through one.
func (d *Dragonfly) gateway(g, h int) int {
	return h % d.perGroup
}

// Path appends the minimal route: intra-router pairs share the router
// crossbar (no fabric segment), intra-group pairs take one local link,
// and cross-group pairs go source router → gateway (local), global
// link, gateway → destination router (local).
func (d *Dragonfly) Path(segs []Segment, src, dst int) ([]Segment, des.Duration) {
	sr, dr := d.RouterOf(src), d.RouterOf(dst)
	if sr == dr {
		return segs, d.localLat
	}
	sg, dg := sr/d.perGroup, dr/d.perGroup
	sl, dl := sr%d.perGroup, dr%d.perGroup
	if sg == dg {
		return append(segs, Seg(d.localLink(sg, sl, dl))), d.localLat
	}
	sgw, dgw := d.gateway(sg, dg), d.gateway(dg, sg)
	if l := d.localLink(sg, sl, sgw); l != nil {
		segs = append(segs, Seg(l))
	}
	segs = append(segs, Seg(d.global[sg*d.groups+dg]))
	if l := d.localLink(dg, dgw, dl); l != nil {
		segs = append(segs, Seg(l))
	}
	return segs, d.globalLat
}

// Resources lists every fabric link for utilisation diagnostics.
func (d *Dragonfly) Resources() []*Resource {
	var rs []*Resource
	for _, links := range d.local {
		a := d.perGroup
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				if r := links[i*a+j]; r != nil {
					rs = append(rs, r)
				}
			}
		}
	}
	for i := 0; i < d.groups; i++ {
		for j := i + 1; j < d.groups; j++ {
			if r := d.global[i*d.groups+j]; r != nil {
				rs = append(rs, r)
			}
		}
	}
	return rs
}
