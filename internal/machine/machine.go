// Package machine holds calibrated profiles of the systems the paper
// benchmarks: their interconnect model (for b_eff), their I/O subsystem
// model (for b_eff_io), memory per processor (which fixes L_max and
// M_PART), and Linpack R_max (for the Fig. 1 balance factor).
//
// Calibration targets the *shape* of the paper's results, not exact
// numbers: per-processor asymptotic bandwidths, ping-pong rates, the
// ring/random gap at scale, SMP numbering effects, and the relative
// I/O behaviours of Fig. 3–5.
package machine

import (
	"fmt"
	"sort"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/simnet"
)

// Numbering is the SMP process-numbering policy the paper contrasts on
// the Hitachi SR 8000 ("round-robin" vs "sequential").
type Numbering int

const (
	// Sequential fills each SMP node before moving to the next.
	Sequential Numbering = iota
	// RoundRobin deals ranks across nodes like cards.
	RoundRobin
)

func (n Numbering) String() string {
	if n == RoundRobin {
		return "round-robin"
	}
	return "sequential"
}

// Class distinguishes the two halves of Table 1.
type Class int

const (
	DistributedMemory Class = iota
	SharedMemory
)

func (c Class) String() string {
	if c == SharedMemory {
		return "shared memory"
	}
	return "distributed memory"
}

// Profile describes one machine.
type Profile struct {
	// Key is the short CLI identifier, Name the Table-1 row label.
	Key, Name string

	Class Class

	// MaxProcs is the largest processor count the profile models.
	MaxProcs int

	// SMPNodeSize is the number of processors per node (1 for MPP).
	SMPNodeSize int

	// Numbering is the rank placement policy.
	Numbering Numbering

	// MemoryPerProc in bytes; L_max = min(128 MB, MemoryPerProc/128)
	// per the b_eff definition.
	MemoryPerProc int64

	// RmaxPerProcGF is the Linpack R_max per processor in GFlop/s, for
	// the balance factor of Fig. 1.
	RmaxPerProcGF float64

	// VendorPingPongMB is the reference asymptotic ping-pong bandwidth
	// in MByte/s as the paper reports it (0 if the paper leaves the
	// cell empty). Used for report columns and calibration tests.
	VendorPingPongMB float64

	// EagerLimit overrides the MPI eager/rendezvous threshold; 0 means
	// the runtime default.
	EagerLimit int64

	// FS describes the I/O subsystem for b_eff_io; nil if the profile
	// is communication-only.
	FS *simfs.Config

	// IOProcsPerNode is how many processes per node b_eff_io should
	// use (the paper runs one I/O process per SP node). 0 means all.
	IOProcsPerNode int

	buildFabric func(procs int) simnetConfig
}

// simnetConfig bundles the fabric with the per-proc NIC parameters.
type simnetConfig struct {
	fabric simnet.Fabric
	cfg    simnet.Config
}

// Lmax is the largest b_eff message: min(128 MB, memory/128).
func (p *Profile) Lmax() int64 {
	l := p.MemoryPerProc / 128
	if l > 128<<20 {
		l = 128 << 20
	}
	return l
}

// MPart is b_eff_io's largest chunk: max(2 MB, node memory/128).
func (p *Profile) MPart() int64 {
	nodeMem := p.MemoryPerProc * int64(maxInt(p.SMPNodeSize, 1))
	m := nodeMem / 128
	if m < 2<<20 {
		m = 2 << 20
	}
	return m
}

// RmaxGF reports the Linpack R_max of a partition in GFlop/s.
func (p *Profile) RmaxGF(procs int) float64 {
	return p.RmaxPerProcGF * float64(procs)
}

// NodesFor reports how many SMP nodes a partition of the given size
// occupies under the profile's numbering.
func (p *Profile) NodesFor(procs int) int {
	nn := (procs + p.SMPNodeSize - 1) / p.SMPNodeSize
	if nn < 1 {
		nn = 1
	}
	return nn
}

// Placement computes the rank → physical-processor map for a partition.
func (p *Profile) Placement(procs int) []int {
	if p.SMPNodeSize <= 1 || p.Numbering == Sequential {
		return nil // identity
	}
	nodes := p.NodesFor(procs)
	place := make([]int, procs)
	for r := 0; r < procs; r++ {
		node := r % nodes
		slot := r / nodes
		place[r] = node*p.SMPNodeSize + slot
	}
	return place
}

// BuildWorld constructs the mpi.WorldConfig for a partition of the
// given size.
func (p *Profile) BuildWorld(procs int) (mpi.WorldConfig, error) {
	if procs < 1 || procs > p.MaxProcs {
		return mpi.WorldConfig{}, fmt.Errorf("machine %s: %d processors outside [1,%d]", p.Key, procs, p.MaxProcs)
	}
	return p.world(procs, procs, p.Placement(procs)), nil
}

// BuildIOWorld constructs a world for b_eff_io runs, honouring the
// profile's IOProcsPerNode policy: on machines measured with one I/O
// process per SMP node (the paper's IBM SP setup), ranks spread one
// per node and the remaining processors idle, exactly as "a 64
// processor run means 64 nodes assigned to I/O".
func (p *Profile) BuildIOWorld(procs int) (mpi.WorldConfig, error) {
	if p.IOProcsPerNode == 0 || p.SMPNodeSize <= 1 || p.IOProcsPerNode >= p.SMPNodeSize {
		return p.BuildWorld(procs)
	}
	physNeeded := procs * p.SMPNodeSize / p.IOProcsPerNode
	if procs < 1 || physNeeded > p.MaxProcs {
		return mpi.WorldConfig{}, fmt.Errorf("machine %s: %d I/O processes need %d processors, have %d",
			p.Key, procs, physNeeded, p.MaxProcs)
	}
	place := make([]int, procs)
	perNode := p.IOProcsPerNode
	for r := 0; r < procs; r++ {
		node := r / perNode
		slot := r % perNode
		place[r] = node*p.SMPNodeSize + slot
	}
	return p.world(physNeeded, procs, place), nil
}

// world builds a fresh network over phys processors and the world of
// ranks placed on it (a nil placement is the identity).
func (p *Profile) world(phys, ranks int, place []int) mpi.WorldConfig {
	sc := p.buildFabric(phys)
	cfg := sc.cfg
	cfg.Fabric = sc.fabric
	return mpi.WorldConfig{
		Net:        simnet.New(cfg),
		Procs:      ranks,
		Placement:  place,
		EagerLimit: p.EagerLimit,
	}
}

// BuildFS constructs a fresh simulated filesystem for the profile, or
// an error if the profile has no I/O model.
func (p *Profile) BuildFS() (*simfs.FS, error) {
	if p.FS == nil {
		return nil, fmt.Errorf("machine %s has no I/O model", p.Key)
	}
	cfg := *p.FS
	return simfs.New(cfg)
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s (%s, up to %d procs, L_max %d MB)",
		p.Name, p.Class, p.MaxProcs, p.Lmax()>>20)
}

// registry of profiles, populated in profiles.go.
var registry = map[string]*Profile{}

func register(p *Profile) *Profile {
	if _, dup := registry[p.Key]; dup {
		panic("machine: duplicate profile key " + p.Key)
	}
	registry[p.Key] = p
	return p
}

// Lookup finds a profile by key.
func Lookup(key string) (*Profile, error) {
	p, ok := registry[key]
	if !ok {
		return nil, fmt.Errorf("machine: unknown profile %q (have %v)", key, Keys())
	}
	return p, nil
}

// Keys lists all registered profile keys, sorted.
func Keys() []string {
	ks := make([]string, 0, len(registry))
	for k := range registry {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Profiles returns every registered profile in a stable order:
// distributed machines first, then shared-memory, each sorted by key.
// This is the enumeration fleet sweeps iterate — a newly registered
// profile joins every fleet report without any command changing.
func Profiles() []*Profile {
	ps := make([]*Profile, 0, len(registry))
	for _, k := range Keys() {
		ps = append(ps, registry[k])
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Class < ps[j].Class })
	return ps
}

// FabricFamily names the interconnect family of the profile — the
// survey-taxonomy axis (torus, fat tree, crossbar, SMP cluster, bus)
// rather than the exact calibration. Derived from the fabric the
// profile actually builds, so it cannot drift from the model.
func (p *Profile) FabricFamily() string {
	procs := 2
	if p.MaxProcs < procs {
		procs = p.MaxProcs
	}
	sc := p.buildFabric(procs)
	switch f := sc.fabric.(type) {
	case *simnet.Torus3D:
		return "3-D torus"
	case *simnet.FatTree:
		return "fat tree"
	case *simnet.Crossbar:
		return "crossbar"
	case *simnet.Dragonfly:
		return "dragonfly"
	case *simnet.SMPCluster:
		if p.SMPNodeSize >= p.MaxProcs {
			return "shared-memory bus"
		}
		return "SMP cluster"
	default:
		return fmt.Sprintf("%T", f)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// torusDims factors n into three balanced torus dimensions.
func torusDims(n int) (int, int, int) {
	d := mpi.DimsCreate(n, 3)
	return d[0], d[1], d[2]
}

// microseconds is sugar for profile tables.
func us(n float64) des.Duration { return des.Duration(n * 1000) }
