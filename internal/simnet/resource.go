// Package simnet models the communication hardware of a parallel
// machine: NICs, links, memory buses and switch fabrics, organised into
// topologies (3-D torus, SMP cluster, shared-memory bus). Transfers
// reserve bandwidth on every resource along their routed path, so
// contention between simultaneous messages emerges from the model rather
// than being an input parameter. This is the substrate under the
// internal/mpi runtime; its calibration per machine lives in
// internal/machine.
package simnet

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
)

// Resource is a single piece of communication hardware with a fixed
// bandwidth: a link, a NIC port, a node's memory bus. A transfer
// occupies the resource exclusively for size/bandwidth seconds;
// overlapping transfers serialise, which is how contention appears.
//
// Reservations fill gaps: a transfer takes the earliest free slot at or
// after its desired start, not merely the slot after the last booking.
// Without gap-filling, the engine's deterministic reservation order
// would introduce artificial convoys — a late-booked transfer between
// an idle pair of processors would queue behind unrelated traffic far
// in the virtual future, and ring exchanges would ripple O(n) instead
// of running in parallel.
type Resource struct {
	name string
	bw   float64 // bytes per second; <= 0 means infinite

	// busySlots are the booked intervals, sorted and disjoint. Slots
	// older than floor are compacted away (treated as solid), bounding
	// memory on long runs.
	busySlots []slot
	floor     des.Time

	// cursor is the index just past the slot the previous reservation
	// merged into. Reservations arrive in (mostly) nondecreasing virtual
	// time, so the next search almost always starts here and checks one
	// slot instead of binary-searching the window.
	cursor int

	busy  des.Duration // total occupied time, for utilisation reports
	count int64        // number of reservations

	// scale, when non-nil, reports the multiplicative bandwidth factor
	// in effect for transfers engaging at a given time — the hook
	// internal/perturb uses for link degradation and flapping. The
	// factor is sampled once per reservation, at the requested engage
	// time.
	scale func(at des.Time) float64
}

type slot struct{ s, e des.Time }

// compactThreshold bounds the busy-slot window per resource.
const compactThreshold = 128

// NewResource returns a resource with the given bandwidth in bytes per
// second. A non-positive bandwidth means the resource is never a
// bottleneck (zero occupancy).
func NewResource(name string, bytesPerSec float64) *Resource {
	return &Resource{name: name, bw: bytesPerSec}
}

// Name returns the diagnostic name of the resource.
func (r *Resource) Name() string { return r.name }

// occupancy returns how long the resource is held by a transfer of the
// given size.
func (r *Resource) occupancy(bytes float64) des.Duration {
	if r.bw <= 0 || bytes <= 0 {
		return 0
	}
	return des.DurationOf(bytes / r.bw)
}

// SetScale installs a time-varying bandwidth factor: a transfer that
// engages the resource at time t runs at bw*fn(t) bytes/second.
// Factors above 1 speed the resource up; factors at or below zero are
// clamped to a tiny positive value (a dead link is merely very slow —
// a true outage would deadlock the simulation). nil removes the hook.
// Must not be changed while a simulation is running.
func (r *Resource) SetScale(fn func(at des.Time) float64) { r.scale = fn }

// occupancyAt is occupancy under the scale factor in effect at time at.
func (r *Resource) occupancyAt(bytes float64, at des.Time) des.Duration {
	occ := r.occupancy(bytes)
	if occ <= 0 || r.scale == nil {
		return occ
	}
	f := r.scale(at)
	if f == 1 {
		return occ
	}
	if f < 1e-6 {
		f = 1e-6
	}
	return des.Duration(float64(occ)/f + 0.5)
}

// NextFree reports the earliest time after all current bookings (the
// end of the last busy slot).
func (r *Resource) NextFree() des.Time {
	if len(r.busySlots) == 0 {
		return r.floor
	}
	return r.busySlots[len(r.busySlots)-1].e
}

// BusyTime reports the cumulative time the resource has been reserved.
func (r *Resource) BusyTime() des.Duration { return r.busy }

// Reservations reports how many transfers have used the resource.
func (r *Resource) Reservations() int64 { return r.count }

// Utilization reports busy time divided by the elapsed horizon.
func (r *Resource) Utilization(horizon des.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return r.busy.Seconds() / des.Duration(horizon).Seconds()
}

func (r *Resource) String() string {
	return fmt.Sprintf("%s(%.1f MB/s)", r.name, r.bw/1e6)
}

// reserveAt books occ of exclusive time at the earliest gap starting at
// or after desired, and returns the slot's start.
func (r *Resource) reserveAt(desired des.Time, occ des.Duration) des.Time {
	r.count++
	r.busy += occ
	if desired < r.floor {
		desired = r.floor
	}
	if occ <= 0 {
		return desired
	}
	start := desired
	n := len(r.busySlots)
	// Find the first slot that can collide — the first whose end lies
	// after start. Slot starts and ends are both sorted (the list is
	// disjoint), so binary search applies; the cursor usually answers
	// without searching at all.
	lo, hi := 0, n
	if c := r.cursor; c <= n && (c == 0 || r.busySlots[c-1].e <= start) {
		lo = c
		if lo == n || r.busySlots[lo].e > start {
			hi = lo // cursor hit: the answer is lo itself
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.busySlots[mid].e <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Walk the (typically zero or one) colliding slots. Every slot from
	// lo on ends after start, and slot starts are nondecreasing, so the
	// first gap wide enough wins.
	insert := n
	for i := lo; i < n; i++ {
		if start.Add(occ) <= r.busySlots[i].s {
			insert = i // fits in the gap before slot i
			break
		}
		start = r.busySlots[i].e // collide: try right after this slot
	}
	newSlot := slot{start, start.Add(occ)}
	r.busySlots = append(r.busySlots, slot{})
	copy(r.busySlots[insert+1:], r.busySlots[insert:])
	r.busySlots[insert] = newSlot
	r.cursor = r.mergeAround(insert) + 1
	if len(r.busySlots) > compactThreshold {
		r.compact()
	}
	return start
}

// mergeAround coalesces the slot at index i with touching neighbours and
// returns the index the slot ends up at.
func (r *Resource) mergeAround(i int) int {
	// Merge with previous.
	if i > 0 && r.busySlots[i-1].e >= r.busySlots[i].s {
		if r.busySlots[i].e > r.busySlots[i-1].e {
			r.busySlots[i-1].e = r.busySlots[i].e
		}
		r.busySlots = append(r.busySlots[:i], r.busySlots[i+1:]...)
		i--
	}
	// Merge with next.
	if i+1 < len(r.busySlots) && r.busySlots[i].e >= r.busySlots[i+1].s {
		if r.busySlots[i+1].e > r.busySlots[i].e {
			r.busySlots[i].e = r.busySlots[i+1].e
		}
		r.busySlots = append(r.busySlots[:i+1], r.busySlots[i+2:]...)
	}
	return i
}

// compact drops the older half of the window, treating everything
// before it as solidly busy (a conservative approximation: ancient
// gaps are rarely usable because requests arrive in nondecreasing
// virtual time).
func (r *Resource) compact() {
	half := len(r.busySlots) / 2
	r.floor = r.busySlots[half-1].e
	r.busySlots = append(r.busySlots[:0], r.busySlots[half:]...)
	r.cursor -= half
	if r.cursor < 0 {
		r.cursor = 0
	}
}

// Segment is one resource on a transfer's path together with a byte
// multiplier. The factor models paths where a resource moves more bytes
// than the message carries — e.g. an intra-node eager transfer copies
// the message twice across the memory bus (send buffer → shared segment
// → receive buffer), so the bus segment has Factor 2.
type Segment struct {
	R      *Resource
	Factor float64
}

// Seg is shorthand for a Segment with Factor 1.
func Seg(r *Resource) Segment { return Segment{R: r, Factor: 1} }

// reserve books a transfer of size bytes across the segments in path
// order, starting no earlier than earliest. The model is cut-through:
// a downstream resource can start carrying the message as soon as the
// upstream one has started (wormhole pipelining), but each resource
// books its own earliest free slot. The returned start is when the
// first segment engages; end is when the slowest segment finishes.
func reserve(segs []Segment, size int64, earliest des.Time) (start, end des.Time) {
	cur := earliest
	start = earliest
	end = earliest
	for i, s := range segs {
		occ := s.R.occupancyAt(float64(size)*s.Factor, cur)
		st := s.R.reserveAt(cur, occ)
		fin := st.Add(occ)
		if i == 0 {
			start = st
		}
		cur = st // cut-through: the next hop engages as this one starts
		if fin > end {
			end = fin
		}
	}
	return start, end
}
