package simnet

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
)

// SMPCluster models a cluster of shared-memory nodes joined by a
// switch: the IBM RS 6000/SP, Hitachi SR 8000, and — with a single node
// — pure shared-memory machines like the NEC SX-5. Intra-node messages
// cross the node's memory bus (twice, for the intermediate shared-memory
// buffer most MPI implementations use, which is why the paper observes
// "half of the memory-to-memory copy bandwidth" on SMPs). Inter-node
// messages cross the source node's egress adapter and the destination
// node's ingress adapter, plus an optional finite switch spine.
type SMPClusterConfig struct {
	Nodes        int
	ProcsPerNode int

	// BusBandwidth is each node's memory bus bandwidth (bytes/s) shared
	// by all its processors. Zero means the bus is never the bottleneck.
	BusBandwidth float64

	// IntraCopies is how many times an intra-node message crosses the
	// bus. 2 models the classic shared-memory-segment double copy; 1
	// models single-copy MPI. Zero defaults to 2.
	IntraCopies float64

	// AdapterBandwidth is each node's network adapter bandwidth
	// (bytes/s), applied once for egress and once for ingress.
	AdapterBandwidth float64

	// SpineBandwidth, when positive, caps the aggregate bandwidth of
	// the central switch; zero models a full crossbar.
	SpineBandwidth float64

	// IntraLatency / InterLatency are the propagation latencies of
	// intra-node and inter-node routes.
	IntraLatency des.Duration
	InterLatency des.Duration
}

// SMPCluster implements Fabric for SMPClusterConfig.
type SMPCluster struct {
	cfg     SMPClusterConfig
	bus     []*Resource
	egress  []*Resource
	ingress []*Resource
	spine   *Resource
}

// NewSMPCluster validates the configuration and builds the resources.
func NewSMPCluster(cfg SMPClusterConfig) *SMPCluster {
	if cfg.Nodes < 1 || cfg.ProcsPerNode < 1 {
		panic(fmt.Sprintf("simnet: invalid cluster %d nodes x %d procs", cfg.Nodes, cfg.ProcsPerNode))
	}
	if cfg.IntraCopies == 0 {
		cfg.IntraCopies = 2
	}
	c := &SMPCluster{cfg: cfg}
	c.bus = make([]*Resource, cfg.Nodes)
	c.egress = make([]*Resource, cfg.Nodes)
	c.ingress = make([]*Resource, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		c.bus[i] = NewResource(fmt.Sprintf("bus%d", i), cfg.BusBandwidth)
		c.egress[i] = NewResource(fmt.Sprintf("egress%d", i), cfg.AdapterBandwidth)
		c.ingress[i] = NewResource(fmt.Sprintf("ingress%d", i), cfg.AdapterBandwidth)
	}
	if cfg.SpineBandwidth > 0 {
		c.spine = NewResource("spine", cfg.SpineBandwidth)
	}
	return c
}

// NumProcs reports Nodes*ProcsPerNode.
func (c *SMPCluster) NumProcs() int { return c.cfg.Nodes * c.cfg.ProcsPerNode }

// NodeOf reports which node a physical processor lives on.
func (c *SMPCluster) NodeOf(proc int) int { return proc / c.cfg.ProcsPerNode }

// Path routes intra-node messages over the node bus and inter-node
// messages over egress → (spine) → ingress.
func (c *SMPCluster) Path(segs []Segment, src, dst int) ([]Segment, des.Duration) {
	sn, dn := c.NodeOf(src), c.NodeOf(dst)
	if sn == dn {
		return append(segs, Segment{R: c.bus[sn], Factor: c.cfg.IntraCopies}), c.cfg.IntraLatency
	}
	segs = append(segs, Seg(c.egress[sn]))
	if c.spine != nil {
		segs = append(segs, Seg(c.spine))
	}
	return append(segs, Seg(c.ingress[dn])), c.cfg.InterLatency
}

// Config returns the cluster configuration.
func (c *SMPCluster) Config() SMPClusterConfig { return c.cfg }

// Crossbar is a fully connected switch with one processor per port: a
// convenient fabric for small tests and for machines whose internals we
// do not model in detail. Every message crosses only the (optional)
// shared spine.
type Crossbar struct {
	n     int
	spine *Resource
	lat   des.Duration
}

// NewCrossbar builds an n-port crossbar. aggregateBW, when positive,
// caps total switch throughput.
func NewCrossbar(n int, aggregateBW float64, lat des.Duration) *Crossbar {
	if n < 1 {
		panic("simnet: crossbar needs at least one port")
	}
	x := &Crossbar{n: n, lat: lat}
	if aggregateBW > 0 {
		x.spine = NewResource("xbar", aggregateBW)
	}
	return x
}

// NumProcs reports the port count.
func (x *Crossbar) NumProcs() int { return x.n }

// Path appends the spine (if capped) and returns the constant latency.
func (x *Crossbar) Path(segs []Segment, src, dst int) ([]Segment, des.Duration) {
	if x.spine != nil {
		segs = append(segs, Seg(x.spine))
	}
	return segs, x.lat
}

// Resources lists the cluster's buses, adapters and spine for
// utilisation diagnostics.
func (c *SMPCluster) Resources() []*Resource {
	var rs []*Resource
	rs = append(rs, c.bus...)
	rs = append(rs, c.egress...)
	rs = append(rs, c.ingress...)
	if c.spine != nil {
		rs = append(rs, c.spine)
	}
	return rs
}

// Resources lists the crossbar's spine, if capped.
func (x *Crossbar) Resources() []*Resource {
	if x.spine == nil {
		return nil
	}
	return []*Resource{x.spine}
}
