package simnet

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
)

// Torus3D is a three-dimensional torus interconnect with one processor
// per node and dimension-ordered routing, the topology of the Cray T3E.
// Each node owns six unidirectional links (+/- in each dimension); a
// message reserves every link along its route, so traffic that crosses
// many hops (random placements, bisection patterns) consumes more of the
// fabric than nearest-neighbour traffic. This is the mechanism behind
// the paper's ring-vs-random gap in Table 1.
type Torus3D struct {
	dims    [3]int
	nprocs  int
	links   []*Resource // [(node*3+dim)*2+dir]
	baseLat des.Duration
	hopLat  des.Duration
}

// NewTorus3D builds a dx × dy × dz torus. linkBW is the bandwidth of
// each unidirectional link in bytes/second; baseLat is the fixed route
// setup latency and hopLat the per-hop propagation latency.
func NewTorus3D(dx, dy, dz int, linkBW float64, baseLat, hopLat des.Duration) *Torus3D {
	if dx < 1 || dy < 1 || dz < 1 {
		panic(fmt.Sprintf("simnet: invalid torus dims %dx%dx%d", dx, dy, dz))
	}
	n := dx * dy * dz
	t := &Torus3D{dims: [3]int{dx, dy, dz}, nprocs: n, baseLat: baseLat, hopLat: hopLat}
	t.links = make([]*Resource, n*6)
	for node := 0; node < n; node++ {
		for dim := 0; dim < 3; dim++ {
			for dir := 0; dir < 2; dir++ {
				t.links[(node*3+dim)*2+dir] = NewResource(
					fmt.Sprintf("link[n%d,d%d,%+d]", node, dim, dir*2-1), linkBW)
			}
		}
	}
	return t
}

// NumProcs reports the processor count dx*dy*dz.
func (t *Torus3D) NumProcs() int { return t.nprocs }

func (t *Torus3D) coords(node int) (c [3]int) {
	c[0] = node % t.dims[0]
	c[1] = (node / t.dims[0]) % t.dims[1]
	c[2] = node / (t.dims[0] * t.dims[1])
	return
}

func (t *Torus3D) node(c [3]int) int {
	return c[0] + t.dims[0]*(c[1]+t.dims[1]*c[2])
}

// step returns the signed unit step (-1 or +1) that moves coordinate
// from towards to along a ring of length n by the shortest way, breaking
// ties in the positive direction.
func step(from, to, n int) int {
	fwd := (to - from + n) % n
	bwd := (from - to + n) % n
	if fwd <= bwd {
		return +1
	}
	return -1
}

// HopCount reports the number of torus links a message from src to dst
// traverses under dimension-ordered shortest-path routing.
func (t *Torus3D) HopCount(src, dst int) int {
	s, d := t.coords(src), t.coords(dst)
	hops := 0
	for dim := 0; dim < 3; dim++ {
		fwd := (d[dim] - s[dim] + t.dims[dim]) % t.dims[dim]
		bwd := (s[dim] - d[dim] + t.dims[dim]) % t.dims[dim]
		if fwd <= bwd {
			hops += fwd
		} else {
			hops += bwd
		}
	}
	return hops
}

// Path routes dimension by dimension (x, then y, then z), taking the
// shortest direction around each ring, and appends the link sequence to
// segs.
func (t *Torus3D) Path(segs []Segment, src, dst int) ([]Segment, des.Duration) {
	cur := t.coords(src)
	d := t.coords(dst)
	hops := 0
	for dim := 0; dim < 3; dim++ {
		for cur[dim] != d[dim] {
			dir := step(cur[dim], d[dim], t.dims[dim])
			diridx := 0
			if dir > 0 {
				diridx = 1
			}
			node := t.node(cur)
			segs = append(segs, Seg(t.links[(node*3+dim)*2+diridx]))
			cur[dim] = ((cur[dim]+dir)%t.dims[dim] + t.dims[dim]) % t.dims[dim]
			hops++
		}
	}
	return segs, t.baseLat + des.Duration(hops)*t.hopLat
}

// Resources lists every torus link for utilisation diagnostics.
func (t *Torus3D) Resources() []*Resource {
	return append([]*Resource(nil), t.links...)
}
