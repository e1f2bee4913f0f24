package beffio

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/stats"
)

// AccessMethod is one of the three b_eff_io access intervals.
type AccessMethod int

const (
	InitialWrite AccessMethod = iota
	Rewrite
	Read

	// NumMethods is the number of access methods.
	NumMethods = 3
)

func (m AccessMethod) String() string {
	switch m {
	case InitialWrite:
		return "initial write"
	case Rewrite:
		return "rewrite"
	case Read:
		return "read"
	}
	return "?"
}

// Weight is the access method's share in the partition average: 25%
// initial write, 25% rewrite, 50% read.
func (m AccessMethod) Weight() float64 {
	if m == Read {
		return 0.5
	}
	return 0.25
}

// Options configures a b_eff_io run on one partition.
type Options struct {
	// T is the scheduled benchmarking time for the partition. The
	// paper requires T >= 15 min for reportable results; simulated
	// runs default to 60 s of virtual time, which exercises the same
	// control flow at a fraction of the event count.
	T des.Duration

	// MPart is max(2 MB, node memory / 128); see machine.Profile.MPart.
	MPart int64

	// GeometricBatching enables the §5.4 improvement: instead of
	// checking the termination criterion after every repetition, the
	// repetition count between checks doubles. Fewer barrier+bcast
	// synchronisations per pattern.
	GeometricBatching bool

	// Info passes MPI-I/O hints to every file open.
	Info mpiio.Info

	// KeepFiles leaves the benchmark files in the filesystem after the
	// run (for inspection); default is delete-on-close.
	KeepFiles bool

	// MaxRepsPerPattern caps repetitions (0 = 1<<20); useful to bound
	// simulation cost for huge T with tiny chunks.
	MaxRepsPerPattern int

	// SkipTypes omits pattern types from execution and averaging; the
	// paper's own Fig. 3/5 data was "measured partially without
	// pattern type 3".
	SkipTypes []PatternType

	// MeasureRandomAccess additionally runs the §6 future-work
	// extension: random-offset noncollective accesses against the
	// written scatter file. Reported separately; never enters the
	// b_eff_io average.
	MeasureRandomAccess bool

	// Seed drives the random-access extension's offset streams.
	Seed int64

	// TypeWeights overrides the pattern-type weights in the
	// access-method average (default: scatter 2, others 1 — the
	// release-1.x rule). The paper's Fig. 3 used pre-release 0.x
	// weightings; this knob reproduces such variants. Must have one
	// entry per pattern type when set.
	TypeWeights []float64
}

func (o Options) withDefaults() Options {
	if o.T == 0 {
		o.T = 60 * des.Second
	}
	if o.MPart < 2*mB {
		o.MPart = 2 * mB
	}
	if o.MaxRepsPerPattern == 0 {
		o.MaxRepsPerPattern = 1 << 20
	}
	return o
}

func (o Options) skips(t PatternType) bool {
	for _, s := range o.SkipTypes {
		if s == t {
			return true
		}
	}
	return false
}

// PatternMeasurement is the Fig.-4-style detail record for one pattern
// under one access method.
type PatternMeasurement struct {
	Pattern Pattern
	Reps    int
	Bytes   int64   // transferred by all processes in this pattern
	Seconds float64 // max across processes
	BW      float64 // Bytes/Seconds
}

// TypeResult aggregates one pattern type under one access method.
type TypeResult struct {
	Type     PatternType
	Skipped  bool
	Patterns []PatternMeasurement
	Bytes    int64
	Seconds  float64 // open-to-close, max across processes
	BW       float64 // Bytes/Seconds — the paper's pattern-type value
}

// MethodResult aggregates one access method.
type MethodResult struct {
	Method AccessMethod
	Types  []TypeResult
	// BW is the weighted average over pattern types (scatter double).
	BW float64
}

// Result is the full b_eff_io protocol of one partition.
type Result struct {
	Procs       int
	T           des.Duration
	MPart       int64
	SegmentSize int64
	Methods     []MethodResult
	// BeffIO is the weighted access-method average in bytes/s.
	BeffIO float64
	// TotalBytes is everything moved during the run.
	TotalBytes int64
	// RandomAccess holds the §6 extension measurements, when enabled.
	RandomAccess []RandomAccessMeasurement
	Options      Options
}

// Run executes b_eff_io on one partition: an MPI world built from w
// against the filesystem fs. The Result is rank 0's copy; all ranks
// compute identical aggregates.
func Run(w mpi.WorldConfig, fs *simfs.FS, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	// The pattern table is read-only and identical on every rank, so it
	// is built once per run rather than once per rank and method.
	var byType [NumTypes][]Pattern
	for _, p := range Table2(opt.MPart) {
		byType[p.Type] = append(byType[p.Type], p)
	}
	var res *Result
	err := mpi.Run(w, func(c *mpi.Comm) {
		r := runBody(c, fs, opt, &byType)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// state carried across access methods within one run.
type runState struct {
	c    *mpi.Comm
	self *mpi.Comm // single-rank communicator for the separated files
	fs   *simfs.FS
	opt  Options

	// byType is Table 2 grouped by pattern type, shared by all ranks.
	byType *[NumTypes][]Pattern

	// writtenReps[num] is the repetition count of the initial write,
	// the wrap-around bound for rewrite/read and the size-driven count
	// for the segmented types.
	writtenReps map[int]int
	// myType2Reps is this rank's own initial-write repetitions of the
	// separated-file patterns (termination there is process-local).
	myType2Reps map[int]int
	// patOffsets[num] is where a pattern's data region starts in its
	// type's file; typeCursor tracks the running end per type during
	// the initial write (the paper's implicit-alignment rule).
	patOffsets map[int]int64
	typeCursor map[PatternType]int64

	segmentSize int64
	segRowReps  []int
	segRowOffs  []int64
}

func runBody(c *mpi.Comm, fs *simfs.FS, opt Options, byType *[NumTypes][]Pattern) *Result {
	st := &runState{
		c:           c,
		self:        c.Split(c.Rank(), 0),
		fs:          fs,
		opt:         opt,
		byType:      byType,
		writtenReps: map[int]int{},
		myType2Reps: map[int]int{},
		patOffsets:  map[int]int64{},
		typeCursor:  map[PatternType]int64{},
	}
	res := &Result{
		Procs:   c.Size(),
		T:       opt.T,
		MPart:   opt.MPart,
		Options: opt,
	}
	for m := AccessMethod(0); m < NumMethods; m++ {
		mr := st.runMethod(m)
		res.Methods = append(res.Methods, mr)
		for _, tr := range mr.Types {
			res.TotalBytes += tr.Bytes
		}
	}
	res.SegmentSize = st.segmentSize

	// Partition value: 25% initial write, 25% rewrite, 50% read.
	var vals, ws []float64
	for _, mr := range res.Methods {
		vals = append(vals, mr.BW)
		ws = append(ws, mr.Method.Weight())
	}
	res.BeffIO = stats.WeightedMean(vals, ws)

	if opt.MeasureRandomAccess {
		seed := opt.Seed
		if seed == 0 {
			seed = 1
		}
		res.RandomAccess = st.runRandomAccess(seed)
	}
	if !opt.KeepFiles {
		st.cleanup()
	}
	return res
}

func (st *runState) runMethod(m AccessMethod) MethodResult {
	mr := MethodResult{Method: m}
	var vals, ws []float64
	for t := PatternType(0); t < NumTypes; t++ {
		defs := st.byType[t]
		if st.opt.skips(t) {
			mr.Types = append(mr.Types, TypeResult{Type: t, Skipped: true})
			continue
		}
		if (t == Segmented || t == SegmentedColl) && m == InitialWrite {
			// Row mapping is defined on the type-3 numbering; types 3
			// and 4 share the resulting segment layout.
			st.computeSegmentSize(st.byType[Segmented])
		}
		tr := st.runType(t, m, defs)
		mr.Types = append(mr.Types, tr)
		vals = append(vals, tr.BW)
		ws = append(ws, st.typeWeight(t))
	}
	mr.BW = stats.WeightedMean(vals, ws)
	return mr
}

// typeWeight resolves a pattern type's weight under the run's options.
func (st *runState) typeWeight(t PatternType) float64 {
	if len(st.opt.TypeWeights) == NumTypes {
		return st.opt.TypeWeights[t]
	}
	return t.Weight()
}

// fileName returns the benchmark file name for a type (and rank, for
// the separated-files type).
func (st *runState) fileName(t PatternType) string {
	if t == Separate {
		return fmt.Sprintf("beffio_type%d.r%d", int(t), st.c.Rank())
	}
	return fmt.Sprintf("beffio_type%d", int(t))
}

func (st *runState) cleanup() {
	c := st.c
	c.Barrier()
	if c.Rank() == 0 {
		for _, t := range []PatternType{Scatter, SharedColl, Segmented, SegmentedColl} {
			if st.fs.Exists(st.fileName(t)) {
				st.fs.Delete(c.Proc(), st.fileName(t))
			}
		}
	}
	if st.fs.Exists(st.fileName(Separate)) {
		st.fs.Delete(c.Proc(), st.fileName(Separate))
	}
	c.Barrier()
}

// openFor opens the type's file with the access method's mode.
func (st *runState) openFor(t PatternType, m AccessMethod) (*mpiio.File, error) {
	comm := st.c
	if t == Separate {
		comm = st.self
	}
	mode := 0
	switch m {
	case InitialWrite:
		mode = mpiio.ModeCreate | mpiio.ModeWrOnly
	case Rewrite:
		mode = mpiio.ModeWrOnly
	case Read:
		mode = mpiio.ModeRdOnly
	}
	return mpiio.Open(comm, st.fs, st.fileName(t), mode, st.opt.Info)
}

// allowedTime is the pattern's slice of the schedule:
// T/3 * U / ΣU.
func (st *runState) allowedTime(p Pattern) float64 {
	return st.opt.T.Seconds() / float64(NumMethods) * float64(p.U) / float64(SumU)
}

// runType executes all patterns of one type under one access method,
// timing from open to close as the paper defines the pattern-type
// value.
func (st *runState) runType(t PatternType, m AccessMethod, defs []Pattern) TypeResult {
	c := st.c
	tr := TypeResult{Type: t}
	if m == InitialWrite && c.Rank() == 0 {
		// A stale file from a previous run would turn the initial
		// write into a rewrite.
		if name := st.fileName(t); t != Separate && st.fs.Exists(name) {
			st.fs.Delete(c.Proc(), name)
		}
	}
	if m == InitialWrite && t == Separate && st.fs.Exists(st.fileName(t)) {
		st.fs.Delete(c.Proc(), st.fileName(t))
	}
	c.Barrier()
	t0 := c.Wtime()
	f, err := st.openFor(t, m)
	if err != nil {
		c.Proc().Fail("beffio: open %v for %v: %v", t, m, err)
	}
	for i, p := range defs {
		pm := st.runPattern(f, t, m, p, i)
		tr.Patterns = append(tr.Patterns, pm)
		tr.Bytes += pm.Bytes
	}
	if m != Read {
		f.Sync()
	}
	f.Close()
	el := c.Wtime() - t0
	tr.Seconds = c.AllreduceFloat64(mpi.OpMax, []float64{el})[0]
	if tr.Seconds > 0 {
		tr.BW = float64(tr.Bytes) / tr.Seconds
	}
	return tr
}
