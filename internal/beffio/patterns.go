// Package beffio implements the effective I/O bandwidth benchmark
// b_eff_io — the paper's second contribution. It drives the MPI-I/O
// layer (internal/mpiio) over a simulated parallel filesystem
// (internal/simfs) through the 36 timed access patterns of Table 2,
// organised in five pattern types (Fig. 2), under three access methods
// (initial write, rewrite, read), with the paper's time-driven
// scheduling (time units U, ΣU = 64) and weighted averaging (double
// weight for the scatter type; 25% write / 25% rewrite / 50% read).
package beffio

import (
	"fmt"

	"github.com/hpcbench/beff/internal/workload"
)

// PatternType is one of the five data-layout families of Fig. 2.
type PatternType int

const (
	// Scatter is type 0: strided collective access scattering large
	// memory chunks of size L into disk chunks of size l with one
	// MPI-I/O call.
	Scatter PatternType = iota
	// SharedColl is type 1: strided collective access through the
	// shared file pointer, one call per disk chunk.
	SharedColl
	// Separate is type 2: noncollective access to one file per process.
	Separate
	// Segmented is type 3: like Separate, but the individual files are
	// assembled into one segmented file.
	Segmented
	// SegmentedColl is type 4: the segmented layout accessed with
	// collective routines.
	SegmentedColl

	// NumTypes is the number of pattern types.
	NumTypes = 5
)

func (t PatternType) String() string {
	switch t {
	case Scatter:
		return "type 0: scatter, collective"
	case SharedColl:
		return "type 1: shared, collective"
	case Separate:
		return "type 2: separated files, non-coll."
	case Segmented:
		return "type 3: segmented, non-coll."
	case SegmentedColl:
		return "type 4: segmented, collective"
	}
	return "?"
}

// Weight is the pattern type's weight in the access-method average:
// the scattering type counts double.
func (t PatternType) Weight() float64 {
	if t == Scatter {
		return 2
	}
	return 1
}

const (
	kB = int64(1) << 10
	mB = int64(1) << 20
)

// Pattern is one row of Table 2, with sizes resolved against M_PART.
type Pattern struct {
	// Num is the pattern number 0..42 as in Table 2.
	Num int
	// Type is the pattern's family.
	Type PatternType
	// DiskChunk is l, the contiguous chunk on disk (FillUp for the
	// fill-up-segment pattern).
	DiskChunk int64
	// MemChunk is L, the contiguous chunk in memory handled per call;
	// equal to DiskChunk except in the scatter type.
	MemChunk int64
	// U is the pattern's share of the scheduled time (ΣU = 64 across
	// all patterns). U = 0 patterns run exactly once: they establish
	// state (first pattern of each type, and the segment fill-up).
	U int
	// Wellformed reports whether the chunk size is one of the paper's
	// aligned sizes: a power of two or M_PART (false for the +8-byte
	// variants).
	Wellformed bool
}

// ChunksPerCall is how many disk chunks one call transfers.
func (p Pattern) ChunksPerCall() int64 {
	if p.DiskChunk <= 0 || p.MemChunk <= 0 {
		return 1
	}
	return p.MemChunk / p.DiskChunk
}

func (p Pattern) String() string {
	return fmt.Sprintf("pattern %d (%v, l=%d, L=%d, U=%d)", p.Num, p.Type, p.DiskChunk, p.MemChunk, p.U)
}

// typeLeaves is the Table-2 correspondence between pattern types and
// the workload leaf shapes that execute them.
var typeLeaves = [NumTypes]struct {
	op         string
	collective bool
}{
	Scatter:       {workload.OpStrided, false},
	SharedColl:    {workload.OpShared, false},
	Separate:      {workload.OpSeparate, false},
	Segmented:     {workload.OpSegmented, false},
	SegmentedColl: {workload.OpSegmented, true},
}

// FillUp is the DiskChunk and MemChunk of the segment fill-up pattern:
// "fill the rest of the segment".
const FillUp = int64(-1)

// Table2 builds the full pattern list of the paper's Table 2 for a
// given M_PART = max(2 MB, node memory / 128): nine scatter rows, then
// one chunk ladder shared by types 1-4, with a fill-up row after each
// segmented type. The returned slice has 43 entries numbered 0..42;
// exactly 36 have U > 0 (the "36 different patterns" of §3.2) and the
// Us sum to 64.
func Table2(mpart int64) []Pattern {
	type row struct {
		l, L int64
		u    int
		wf   bool
	}
	out := make([]Pattern, 0, 43)
	add := func(t PatternType, r row) {
		out = append(out, Pattern{Num: len(out), Type: t, DiskChunk: r.l, MemChunk: r.L, U: r.u, Wellformed: r.wf})
	}
	for _, r := range []row{
		{1 * mB, 1 * mB, 0, true},
		{mpart, mpart, 4, true},
		{1 * mB, 2 * mB, 4, true},
		{1 * mB, 1 * mB, 4, true},
		{32 * kB, 1 * mB, 2, true},
		{1 * kB, 1 * mB, 2, true},
		{32*kB + 8, 1*mB + 256, 2, false},
		{1*kB + 8, 1*mB + 8*kB, 2, false},
		{1*mB + 8, 1*mB + 8, 2, false},
	} {
		add(Scatter, r)
	}
	for t := SharedColl; t <= SegmentedColl; t++ {
		// Only the M_PART row's U differs between the types.
		mpartU := 2
		if t == SharedColl {
			mpartU = 4
		}
		for _, r := range []row{
			{l: 1 * mB, u: 0, wf: true},
			{l: mpart, u: mpartU, wf: true},
			{l: 1 * mB, u: 2, wf: true},
			{l: 32 * kB, u: 1, wf: true},
			{l: 1 * kB, u: 1, wf: true},
			{l: 32*kB + 8, u: 1},
			{l: 1*kB + 8, u: 1},
			{l: 1*mB + 8, u: 2},
		} {
			r.L = r.l
			add(t, r)
		}
		if t == Segmented || t == SegmentedColl {
			add(t, row{FillUp, FillUp, 0, true})
		}
	}
	return out
}

// SumU is the total of the U column: the divisor of the time shares.
const SumU = 64

// TimedPatternCount is the number of patterns with U > 0.
const TimedPatternCount = 36
