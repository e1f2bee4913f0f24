package simnet

import (
	"fmt"
	"sort"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/obs"
)

// Fabric is a routed interconnect topology over physical processors
// 0..NumProcs-1. Path returns the shared resources a message traverses
// between two processors (excluding the per-processor NICs, which Net
// owns) and the propagation latency of the route.
type Fabric interface {
	NumProcs() int
	Path(src, dst int) ([]Segment, des.Duration)
}

// Config describes the per-processor communication parameters of a
// machine; the Fabric describes everything shared.
type Config struct {
	Fabric Fabric

	// TxBandwidth and RxBandwidth are the per-processor injection and
	// ejection bandwidths in bytes/second (the NIC directions). A zero
	// value means not a bottleneck.
	TxBandwidth float64
	RxBandwidth float64

	// PortBandwidth, when positive, adds a per-processor half-duplex
	// memory port crossed by both outgoing and incoming traffic. It is
	// what makes simultaneous bidirectional traffic (everyone
	// communicating in parallel, the b_eff scenario) slower per process
	// than a one-directional ping-pong stream: a ping-pong only moves
	// one message through the port at a time, while a ring loop pushes
	// send and receive traffic through it together.
	PortBandwidth float64

	// SendOverhead and RecvOverhead are per-message software costs (the
	// "o" of the LogGP model): time the CPU is busy before the first
	// byte is injected / after the last byte arrives. They dominate
	// small-message bandwidth.
	SendOverhead des.Duration
	RecvOverhead des.Duration

	// MemCopyBandwidth is the single-processor memory copy bandwidth in
	// bytes/second, used for buffer packing/unpacking costs charged by
	// the layers above. Zero means copies are free.
	MemCopyBandwidth float64
}

// maxPathCacheProcs bounds the processor count up to which per-pair
// route caches are kept. Above it the quadratic table would dominate
// memory (rows are lazy, but a full all-to-all touches them all), so
// larger machines fall back to computing routes per transfer.
const maxPathCacheProcs = 1024

// cachedRoute is one memoised route: the segment list a transfer books
// and the propagation latency of the route. The slice is shared between
// every transfer of the pair and must never be modified.
type cachedRoute struct {
	segs []Segment
	lat  des.Duration
	ok   bool
}

// Net is a machine's communication subsystem: NICs plus a routed
// fabric. All methods must be called from within a des.Engine run (they
// are not safe for concurrent use, by design: the engine serialises).
type Net struct {
	cfg  Config
	tx   []*Resource
	rx   []*Resource
	port []*Resource // nil unless PortBandwidth > 0

	// pathRows memoises the fully composed segment list (NIC, port,
	// fabric route, port, NIC) and latency per (src,dst) pair. Routing
	// is static, so the composition is a pure function of the pair; one
	// full Table-1 run books millions of transfers over the same few
	// thousand pairs. nil when NumProcs > maxPathCacheProcs.
	pathRows [][]cachedRoute
	scratch  []Segment // compose buffer for the uncached fallback

	bytesMoved int64
	messages   int64

	// transferObs holds observers registered with Observe; they fire
	// in registration order.
	transferObs []func(src, dst int, size int64, start, end des.Time)

	// stalls and slowdowns hold hooks added with AddProcPerturb.
	// Stall durations sum; slowdown factors multiply. A stall reports
	// how long a processor's CPU is unavailable at a given time
	// (OS-noise detours), a slowdown a >= 1 multiplier on its software
	// overheads (straggler nodes).
	stalls    []func(proc int, at des.Time) des.Duration
	slowdowns []func(proc int) float64

	metrics *Metrics
}

// Metrics is the network's optional observability hook-up. All fields
// may be nil; a nil *Metrics costs one branch per transfer. Attach
// with SetMetrics before the simulation starts.
type Metrics struct {
	// Transfers and Bytes count every booked transfer (self-sends
	// included) and their payload bytes.
	Transfers *obs.Counter
	Bytes     *obs.Counter

	// Queued counts transfers whose injection was delayed because a
	// resource on the route was already busy — back-pressure events.
	Queued *obs.Counter

	// RouteCacheHits and RouteCacheMisses track the per-pair route
	// cache; misses include the uncached fallback on machines above
	// maxPathCacheProcs.
	RouteCacheHits   *obs.Counter
	RouteCacheMisses *obs.Counter

	// TransferBytes is the payload size distribution.
	TransferBytes *obs.Histogram
}

// SetMetrics attaches network instruments; nil detaches them.
func (n *Net) SetMetrics(m *Metrics) { n.metrics = m }

// New builds the per-processor resources around the fabric.
func New(cfg Config) *Net {
	if cfg.Fabric == nil {
		panic("simnet: Config.Fabric is required")
	}
	n := cfg.Fabric.NumProcs()
	net := &Net{cfg: cfg, tx: make([]*Resource, n), rx: make([]*Resource, n)}
	for i := 0; i < n; i++ {
		net.tx[i] = NewResource(fmt.Sprintf("tx%d", i), cfg.TxBandwidth)
		net.rx[i] = NewResource(fmt.Sprintf("rx%d", i), cfg.RxBandwidth)
	}
	if cfg.PortBandwidth > 0 {
		net.port = make([]*Resource, n)
		for i := 0; i < n; i++ {
			net.port[i] = NewResource(fmt.Sprintf("port%d", i), cfg.PortBandwidth)
		}
	}
	if n <= maxPathCacheProcs {
		net.pathRows = make([][]cachedRoute, n)
	}
	return net
}

// NumProcs reports the number of physical processors.
func (n *Net) NumProcs() int { return n.cfg.Fabric.NumProcs() }

// AddProcPerturb registers per-processor perturbation hooks; either
// may be nil. Hooks compose deterministically: stall durations from
// every registered hook add up, slowdown factors multiply. Must be
// called before the simulation starts.
func (n *Net) AddProcPerturb(stall func(proc int, at des.Time) des.Duration, slowdown func(proc int) float64) {
	if stall != nil {
		n.stalls = append(n.stalls, stall)
	}
	if slowdown != nil {
		n.slowdowns = append(n.slowdowns, slowdown)
	}
}

// stallAt reports the remaining CPU detour of a processor at time at:
// the sum over every registered stall hook. The wrapper keeps the
// common unperturbed case inlinable at the Transfer call sites (the
// summing loop below would defeat inlining).
func (n *Net) stallAt(proc int, at des.Time) des.Duration {
	if len(n.stalls) == 0 {
		return 0
	}
	return n.stallSum(proc, at)
}

func (n *Net) stallSum(proc int, at des.Time) des.Duration {
	var d des.Duration
	for _, fn := range n.stalls {
		d += fn(proc, at)
	}
	return d
}

// scaleOverhead applies a processor's straggler slowdowns to a
// software overhead; factors > 1 from every registered hook multiply.
// Split like stallAt so the no-slowdown case inlines.
func (n *Net) scaleOverhead(d des.Duration, proc int) des.Duration {
	if d <= 0 || len(n.slowdowns) == 0 {
		return d
	}
	return n.scaleOverheadSlow(d, proc)
}

func (n *Net) scaleOverheadSlow(d des.Duration, proc int) des.Duration {
	f := 1.0
	for _, fn := range n.slowdowns {
		if s := fn(proc); s > 1 {
			f *= s
		}
	}
	if f > 1 {
		return des.Duration(float64(float64(d)*f) + 0.5) // float64(): no FMA
	}
	return d
}

// SendOverheadFor reports the per-message send overhead charged on a
// processor, straggler slowdown included. The MPI runtime uses it for
// the sender's CPU submission cost so slow nodes are slow end to end.
func (n *Net) SendOverheadFor(proc int) des.Duration {
	return n.scaleOverhead(n.cfg.SendOverhead, proc)
}

// RecvOverheadFor is SendOverheadFor for the receive side.
func (n *Net) RecvOverheadFor(proc int) des.Duration {
	return n.scaleOverhead(n.cfg.RecvOverhead, proc)
}

// Transfer books a message of size bytes from processor src to dst,
// starting no earlier than earliest. It returns when the sender's CPU
// is free again (overhead + injection) and when the message is available
// at the receiver (including the receive overhead). A zero-size message
// still pays overheads and latency.
func (n *Net) Transfer(src, dst int, size int64, earliest des.Time) (senderFree, arrival des.Time) {
	if size < 0 {
		panic(fmt.Sprintf("simnet: negative transfer size %d", size))
	}
	if src == dst {
		// Self-send: a memory copy, no network involvement (but the
		// processor's noise detours and straggler overheads still bite).
		st := earliest.Add(n.stallAt(src, earliest))
		end := st.Add(n.SendOverheadFor(src)).Add(n.CopyTime(size)).Add(n.RecvOverheadFor(dst))
		n.bytesMoved += size
		n.messages++
		if m := n.metrics; m != nil {
			m.Transfers.Inc()
			m.Bytes.Add(size)
			m.TransferBytes.Observe(size)
		}
		n.notifyTransfer(src, dst, size, earliest, end)
		return end, end
	}
	segs, lat := n.pathFor(src, dst)

	// An OS-noise detour on the sending CPU delays injection; one on
	// the receiving CPU delays when the payload is usable.
	injectAt := earliest.Add(n.stallAt(src, earliest)).Add(n.SendOverheadFor(src))
	start, end := reserve(segs, size, injectAt)
	senderFree = end // sender's NIC engagement models back-pressure
	arrival = end.Add(lat).Add(n.RecvOverheadFor(dst))
	arrival = arrival.Add(n.stallAt(dst, arrival))
	n.bytesMoved += size
	n.messages++
	if m := n.metrics; m != nil {
		m.Transfers.Inc()
		m.Bytes.Add(size)
		m.TransferBytes.Observe(size)
		if start > injectAt {
			m.Queued.Inc()
		}
	}
	n.notifyTransfer(src, dst, size, start, arrival)
	return senderFree, arrival
}

// notifyTransfer fans a transfer observation out to every Observe
// subscriber. The unobserved case must stay inlinable — it runs once
// per booked message.
func (n *Net) notifyTransfer(src, dst int, size int64, start, end des.Time) {
	if len(n.transferObs) == 0 {
		return
	}
	n.fanOutTransfer(src, dst, size, start, end)
}

func (n *Net) fanOutTransfer(src, dst int, size int64, start, end des.Time) {
	for _, fn := range n.transferObs {
		fn(src, dst, size, start, end)
	}
}

// pathFor returns the composed segment list and route latency for a
// src→dst transfer, from the per-pair cache when one is kept. The
// returned slice is shared; callers must only read it.
func (n *Net) pathFor(src, dst int) ([]Segment, des.Duration) {
	if n.pathRows == nil {
		// Too many processors to memoise: compose into the reusable
		// scratch buffer (consumed synchronously by reserve).
		if m := n.metrics; m != nil {
			m.RouteCacheMisses.Inc()
		}
		path, lat := n.cfg.Fabric.Path(src, dst)
		n.scratch = n.composeInto(n.scratch[:0], src, dst, path)
		return n.scratch, lat
	}
	row := n.pathRows[src]
	if row == nil {
		row = make([]cachedRoute, len(n.pathRows))
		n.pathRows[src] = row
	}
	if e := &row[dst]; e.ok {
		if m := n.metrics; m != nil {
			m.RouteCacheHits.Inc()
		}
		return e.segs, e.lat
	}
	if m := n.metrics; m != nil {
		m.RouteCacheMisses.Inc()
	}
	path, lat := n.cfg.Fabric.Path(src, dst)
	segs := n.composeInto(make([]Segment, 0, len(path)+4), src, dst, path)
	row[dst] = cachedRoute{segs: segs, lat: lat, ok: true}
	return segs, lat
}

// composeInto appends the full resource chain of a transfer — source
// NIC, memory ports if modelled, the fabric route, destination NIC —
// to segs and returns it.
func (n *Net) composeInto(segs []Segment, src, dst int, path []Segment) []Segment {
	segs = append(segs, Seg(n.tx[src]))
	if n.port != nil {
		segs = append(segs, Seg(n.port[src]))
	}
	segs = append(segs, path...)
	if n.port != nil {
		segs = append(segs, Seg(n.port[dst]))
	}
	segs = append(segs, Seg(n.rx[dst]))
	return segs
}

// CopyTime reports the cost of a local memory copy of size bytes.
func (n *Net) CopyTime(size int64) des.Duration {
	if n.cfg.MemCopyBandwidth <= 0 || size <= 0 {
		return 0
	}
	return des.DurationOf(float64(size) / n.cfg.MemCopyBandwidth)
}

// Latency reports the zero-byte one-way latency between two processors,
// overheads included. Useful for calibration tests.
func (n *Net) Latency(src, dst int) des.Duration {
	if src == dst {
		return n.cfg.SendOverhead + n.cfg.RecvOverhead
	}
	var lat des.Duration
	if n.pathRows != nil {
		// Rendezvous asks for latency on every message; read it from the
		// route cache rather than re-deriving the route.
		_, lat = n.pathFor(src, dst)
	} else {
		_, lat = n.cfg.Fabric.Path(src, dst)
	}
	return n.cfg.SendOverhead + lat + n.cfg.RecvOverhead
}

// BytesMoved reports the total payload bytes transferred.
func (n *Net) BytesMoved() int64 { return n.bytesMoved }

// Messages reports the number of transfers.
func (n *Net) Messages() int64 { return n.messages }

// Config returns the configuration the Net was built with.
func (n *Net) Config() Config { return n.cfg }

// Observe registers a transfer observer: source and destination
// processors, payload size, injection start and arrival. Observers
// compose — each call adds a subscriber, and all fire per transfer in
// registration order. Must be called before the simulation starts.
func (n *Net) Observe(f func(src, dst int, size int64, start, end des.Time)) {
	if f != nil {
		n.transferObs = append(n.transferObs, f)
	}
}

// ResourceLister is implemented by fabrics that can enumerate their
// shared resources for utilisation diagnostics.
type ResourceLister interface {
	Resources() []*Resource
}

// Resources returns every resource the Net owns or routes over: the
// per-processor NICs and ports, plus — if the fabric implements
// ResourceLister — its links. internal/perturb iterates this to attach
// link faults; diagnostics use it for utilisation reports.
func (n *Net) Resources() []*Resource {
	var rs []*Resource
	rs = append(rs, n.tx...)
	rs = append(rs, n.rx...)
	rs = append(rs, n.port...)
	if fl, ok := n.cfg.Fabric.(ResourceLister); ok {
		rs = append(rs, fl.Resources()...)
	}
	return rs
}

// ResourceStat is one row of a utilisation report.
type ResourceStat struct {
	Name         string
	Busy         des.Duration
	Utilization  float64
	Reservations int64
}

// HotResources returns the busiest resources (NICs, ports, and — if the
// fabric implements ResourceLister — its links) sorted by busy time,
// with utilisation computed against the given horizon. topN <= 0 means
// all.
func (n *Net) HotResources(horizon des.Time, topN int) []ResourceStat {
	rs := n.Resources()
	stats := make([]ResourceStat, 0, len(rs))
	for _, r := range rs {
		if r == nil || r.Reservations() == 0 {
			continue
		}
		stats = append(stats, ResourceStat{
			Name:         r.Name(),
			Busy:         r.BusyTime(),
			Utilization:  r.Utilization(horizon),
			Reservations: r.Reservations(),
		})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Busy != stats[j].Busy {
			return stats[i].Busy > stats[j].Busy
		}
		return stats[i].Name < stats[j].Name
	})
	if topN > 0 && len(stats) > topN {
		stats = stats[:topN]
	}
	return stats
}
