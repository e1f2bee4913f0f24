package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/simfs"
)

// The streaming executor: compiles a validated spec down to
// internal/mpiio calls against an internal/simfs filesystem, phase by
// phase. Execution is count-driven and lockstep — every rank walks the
// same tree with the same shared RNG — so collective call sequences
// never diverge and results are byte-deterministic.
//
// Region allocation: write leaves claim fresh regions of the target
// file from a monotone cursor (identical on every rank); pure read
// leaves wrap over the file's written extent instead, so a read phase
// re-reads what a write phase left behind — including its cache
// residency, the §5.4 effect the zipf-hot scenarios lean on. Reads of
// never-written regions are allowed (they cost full disk time).

// PhaseResult is one phase's measurement.
type PhaseResult struct {
	Name string
	// Ops counts leaf operations across all ranks.
	Ops int64
	// WriteBytes and ReadBytes are the payload totals across ranks.
	WriteBytes int64
	ReadBytes  int64
	Bytes      int64
	// Seconds is the phase's elapsed virtual time, max across ranks
	// (barrier to barrier, including the closing sync).
	Seconds float64
	// BW is Bytes/Seconds.
	BW float64
}

// Result is the full outcome of one workload run on one partition.
type Result struct {
	Name       string
	Procs      int
	Seed       int64
	Phases     []PhaseResult
	TotalBytes int64
	// Seconds is the sum of the phase times; BW the overall rate.
	Seconds float64
	BW      float64
	// Spec echoes the executed workload, in canonical form.
	Spec *Spec
}

// Run executes the spec on one partition: an MPI world built from w
// against the filesystem fs. The spec must be normalized and valid
// (Parse output is; hand-built specs should call Normalize and
// Validate). The Result is rank 0's copy; all ranks compute identical
// aggregates.
func Run(w mpi.WorldConfig, fs *simfs.FS, spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var res *Result
	err := mpi.Run(w, func(c *mpi.Comm) {
		r := runBody(c, fs, spec)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// execState is the per-rank walk state; every field that influences
// control flow is identical across ranks by construction.
type execState struct {
	c    *mpi.Comm
	self *mpi.Comm
	fs   *simfs.FS
	spec *Spec

	// rng is the shared stream: identical seed and draw sequence on
	// every rank, so mix flips and zipf draws agree everywhere.
	rng *rand.Rand

	// handles caches open files by name; sel is the zipf file-suffix
	// stack; mix is the read-fraction stack.
	handles map[string]*mpiio.File
	sel     []string
	mix     []float64

	// cursor is the next free offset per logical file; written is the
	// written high-water mark (both rank-invariant).
	cursor  map[string]int64
	written map[string]int64

	// sharedNames are communal files this run created (same on every
	// rank); sepNames are this rank's own separated files.
	sharedNames map[string]bool
	sepNames    map[string]bool

	// per-phase counters, this rank's share.
	ops        int64
	readBytes  int64
	writeBytes int64
}

func runBody(c *mpi.Comm, fs *simfs.FS, spec *Spec) *Result {
	ec := &execState{
		c:           c,
		self:        c.Split(c.Rank(), 0),
		fs:          fs,
		spec:        spec,
		rng:         rand.New(rand.NewSource(spec.Seed)),
		handles:     map[string]*mpiio.File{},
		cursor:      map[string]int64{},
		written:     map[string]int64{},
		sharedNames: map[string]bool{},
		sepNames:    map[string]bool{},
	}
	res := &Result{
		Name:  spec.Name,
		Procs: c.Size(),
		Seed:  spec.Seed,
		Spec:  spec,
	}
	for _, ph := range spec.Phases {
		ec.ops, ec.readBytes, ec.writeBytes = 0, 0, 0
		c.Barrier()
		t0 := c.Wtime()
		ec.exec(ph.Pattern)
		ec.syncAll()
		el := c.Wtime() - t0

		pr := PhaseResult{Name: ph.Name}
		sums := []int64{ec.ops, ec.readBytes, ec.writeBytes}
		mpi.Allreduce(c, mpi.OpSum, sums)
		pr.Ops, pr.ReadBytes, pr.WriteBytes = sums[0], sums[1], sums[2]
		pr.Bytes = pr.ReadBytes + pr.WriteBytes
		pr.Seconds = mpi.AllreduceValue(c, mpi.OpMax, el)
		if pr.Seconds > 0 {
			pr.BW = float64(pr.Bytes) / pr.Seconds
		}
		res.Phases = append(res.Phases, pr)
		res.TotalBytes += pr.Bytes
		res.Seconds += pr.Seconds
	}
	ec.cleanup()
	if res.Seconds > 0 {
		res.BW = float64(res.TotalBytes) / res.Seconds
	}
	return res
}

// exec walks one node.
func (ec *execState) exec(n *Node) {
	switch n.Op {
	case OpSeq:
		for _, c := range n.Nodes {
			ec.exec(c)
		}
	case OpRepeat:
		for i := 0; i < n.Count; i++ {
			ec.exec(n.Body)
		}
	case OpBursty:
		gap := des.DurationOf(n.GapMS / 1000)
		for i := 0; i < n.Count; i++ {
			for b := 0; b < n.Burst; b++ {
				ec.exec(n.Body)
			}
			if gap > 0 {
				ec.c.Proc().Sleep(gap) // the compute phase between bursts
			}
		}
	case OpMix:
		ec.mix = append(ec.mix, n.ReadFraction)
		for i := 0; i < n.Count; i++ {
			ec.exec(n.Body)
		}
		ec.mix = ec.mix[:len(ec.mix)-1]
	case OpZipf:
		// Zipf over [0, Files): file 0 is the hot one. The generator
		// draws from the shared RNG, so every rank picks the same file.
		z := rand.NewZipf(ec.rng, n.Theta, 1, uint64(n.Files-1))
		for i := 0; i < n.Count; i++ {
			idx := z.Uint64()
			ec.sel = append(ec.sel, fmt.Sprintf("_f%03d", idx))
			ec.exec(n.Body)
			ec.sel = ec.sel[:len(ec.sel)-1]
		}
	case OpStrided, OpShared, OpSeparate, OpSegmented:
		ec.runLeaf(n)
	default:
		ec.c.Proc().Fail("workload: unvalidated op %q", n.Op)
	}
}

// baseName is the current communal file name (zipf selection applied).
func (ec *execState) baseName() string {
	name := "wl"
	for _, s := range ec.sel {
		name += s
	}
	return name
}

// dir decides one repetition's direction: the innermost mix ancestor
// flips a shared-RNG coin; otherwise the leaf's Read flag stands.
func (ec *execState) dir(n *Node) bool {
	if len(ec.mix) > 0 {
		return ec.rng.Float64() < ec.mix[len(ec.mix)-1]
	}
	return n.Read
}

// open returns (opening on first use) the cached handle for name.
func (ec *execState) open(name string, comm *mpi.Comm, separate bool) *mpiio.File {
	if f, ok := ec.handles[name]; ok {
		return f
	}
	f, err := mpiio.Open(comm, ec.fs, name, mpiio.ModeCreate|mpiio.ModeRdWr, mpiio.Info{})
	if err != nil {
		comm.Proc().Fail("workload: open %q: %v", name, err)
	}
	ec.handles[name] = f
	if separate {
		ec.sepNames[name] = true
	} else {
		ec.sharedNames[name] = true
	}
	return f
}

// runLeaf executes one access leaf Count times under the region policy
// above. One repetition covers stride bytes of the logical file across
// all ranks; separated files are per rank, so there the stride is one
// rank's share. The leaf kernel (Place, Access.Rep) turns each
// repetition into mpiio calls.
func (ec *execState) runLeaf(n *Node) {
	c := ec.c
	size := n.Chunk
	if n.Mem > 0 {
		size = n.Mem
	}
	stride := size * int64(c.Size())
	key := ec.baseName()
	var f *mpiio.File
	if n.Op == OpSeparate {
		stride = size
		f = ec.open(fmt.Sprintf("%s.r%d", key, c.Rank()), ec.self, true)
		key += "@sep"
	} else {
		f = ec.open(key, c, false)
	}
	// A pure read (no mix ancestor to flip it into writes) wraps over
	// the written extent; anything else, or a read of a never-written
	// file (raw disk reads), claims a fresh region from the cursor.
	base, wrap := ec.cursor[key], n.Count
	if w := ec.written[key]; n.Read && len(ec.mix) == 0 && w >= stride {
		base, wrap = 0, int(w/stride)
	} else {
		ec.cursor[key] = base + int64(n.Count)*stride
	}
	var segment int64
	if n.Op == OpSegmented {
		segment = int64(wrap) * n.Chunk
	}
	a := Place(c, f, n.Op, n.Collective, n.Chunk, n.Mem, base, segment, wrap)
	wrote := false
	for rep := 0; rep < n.Count; rep++ {
		if ec.dir(n) {
			ec.readBytes += a.Rep(rep, true)
		} else {
			ec.writeBytes += a.Rep(rep, false)
			wrote = true
		}
		ec.ops++
	}
	if wrote {
		ec.written[key] = max(ec.written[key], base+int64(n.Count)*stride)
	}
}

// sortedHandles lists open handles in a rank-invariant order: the
// varying rank suffix of separated files never decides the relative
// order of two names, so every rank performs collective syncs and
// closes in the same sequence.
func (ec *execState) sortedHandles() []string {
	names := make([]string, 0, len(ec.handles))
	for n := range ec.handles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// syncAll drains every open file at the end of a phase, so the phase
// time honestly includes the disk work its writes queued.
func (ec *execState) syncAll() {
	for _, name := range ec.sortedHandles() {
		ec.handles[name].Sync()
	}
}

// cleanup closes every handle and deletes the benchmark files.
func (ec *execState) cleanup() {
	c := ec.c
	for _, name := range ec.sortedHandles() {
		ec.handles[name].Close()
	}
	c.Barrier()
	if c.Rank() == 0 {
		shared := make([]string, 0, len(ec.sharedNames))
		for n := range ec.sharedNames {
			shared = append(shared, n)
		}
		sort.Strings(shared)
		for _, n := range shared {
			if ec.fs.Exists(n) {
				ec.fs.Delete(c.Proc(), n)
			}
		}
	}
	sep := make([]string, 0, len(ec.sepNames))
	for n := range ec.sepNames {
		sep = append(sep, n)
	}
	sort.Strings(sep)
	for _, n := range sep {
		if ec.fs.Exists(n) {
			ec.fs.Delete(c.Proc(), n)
		}
	}
	c.Barrier()
}
