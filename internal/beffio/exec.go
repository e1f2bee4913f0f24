package beffio

import (
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/workload"
)

// This file executes individual patterns: the paper's region rules
// (implicit alignment, rewrite/read wrapping, the segment layout) and
// its termination rules (time-driven with global or process-local
// decisions, size-driven for the segmented types). The workload leaf
// kernel (workload.Place), the same code that runs workload specs,
// performs each repetition.

// timeDrivenGlobal repeats doRep until the pattern's scheduled time is
// exhausted, deciding termination the way the paper describes: the
// clock is read at the root after a barrier and the decision is
// broadcast, so all processes stop after the same iteration. With
// GeometricBatching the repetitions between checks double (the §5.4
// improvement); otherwise every iteration pays the synchronisation,
// which §5.4 measures as a real distortion for fast small-chunk
// patterns — reproduced faithfully here.
func (st *runState) timeDrivenGlobal(p Pattern, doRep func(rep int)) int {
	c := st.c
	if p.U == 0 {
		doRep(0)
		return 1
	}
	allowed := st.allowedTime(p)
	start := c.Wtime()
	reps := 0
	batch := 1
	buf := make([]int64, 1)
	for {
		for k := 0; k < batch && reps < st.opt.MaxRepsPerPattern; k++ {
			doRep(reps)
			reps++
		}
		c.Barrier()
		buf[0] = 0
		if c.Rank() == 0 && (c.Wtime()-start >= allowed || reps >= st.opt.MaxRepsPerPattern) {
			buf[0] = 1
		}
		c.BcastInt64(0, buf)
		if buf[0] == 1 {
			return reps
		}
		if st.opt.GeometricBatching {
			batch *= 2
		}
	}
}

// timeDrivenLocal is the noncollective variant: each process checks its
// own clock, so repetition counts may differ between processes (the
// separated-files type).
func (st *runState) timeDrivenLocal(p Pattern, doRep func(rep int)) int {
	c := st.c
	if p.U == 0 {
		doRep(0)
		return 1
	}
	allowed := st.allowedTime(p)
	start := c.Wtime()
	reps := 0
	for c.Wtime()-start < allowed && reps < st.opt.MaxRepsPerPattern {
		doRep(reps)
		reps++
	}
	return reps
}

// wrapFor bounds rewrite/read repositioning to the initially written
// region of a pattern. Separated-file termination is process-local,
// so there each process wraps over its own repetitions.
func (st *runState) wrapFor(p Pattern, m AccessMethod) int {
	if m == InitialWrite {
		return 0 // no wrap: writing fresh data
	}
	if p.Type == Separate {
		return max(st.myType2Reps[p.Num], 1)
	}
	return max(st.writtenReps[p.Num], 1)
}

// runPattern executes one Table-2 pattern under one access method and
// returns its measurement. idx is the pattern's position within its
// type. The paper's rules fix where the pattern's data lives and when
// it stops; the workload leaf kernel performs each repetition:
//
//   - scatter and shared: a region of L*n bytes per repetition at the
//     type's implicit alignment, global time-driven termination, and
//     rewrite/read wrapping over the initial write's repetitions;
//   - separated files: the same layout in every process's file, with
//     process-local termination; the region end uses the maximum
//     repetitions across processes, so processes with fewer leave
//     holes, as the real benchmark does;
//   - segmented: each process owns one segment of the common file, and
//     each row a size-driven stretch of it; the fill-up row writes the
//     rest of the segment in one call.
func (st *runState) runPattern(f *mpiio.File, t PatternType, m AccessMethod, p Pattern, idx int) PatternMeasurement {
	c := st.c
	start := c.Wtime()
	n := int64(c.Size())
	leaf := typeLeaves[t]
	l, base, wrap := p.DiskChunk, st.patOffset(p), st.wrapFor(p, m)
	var segment int64
	reps := 1
	if t == Segmented || t == SegmentedColl {
		base, segment, wrap = st.segPatOffset(idx), st.segmentSize, 0
		if l == workload.FillUp {
			l = segment - base // positive: computeSegmentSize rounds up past the rows
		} else {
			reps = st.segReps(idx)
		}
	}
	a := workload.Place(c, f, leaf.op, leaf.collective, l, p.MemChunk, base, segment, wrap)
	doRep := func(rep int) { a.Rep(rep, m == Read) }

	var bytes int64
	switch t {
	case Scatter, SharedColl:
		reps = st.timeDrivenGlobal(p, doRep)
		bytes = int64(reps) * p.MemChunk * n
		if m == InitialWrite {
			st.recordRegion(p, base, reps, bytes)
		}
	case Separate:
		myReps := st.timeDrivenLocal(p, doRep)
		reps = int(c.AllreduceInt64(mpi.OpMax, []int64{int64(myReps)})[0])
		if m == InitialWrite {
			st.myType2Reps[p.Num] = myReps
			st.recordRegion(p, base, reps, int64(reps)*l)
		}
		bytes = c.AllreduceInt64(mpi.OpSum, []int64{int64(myReps) * l})[0]
	default: // size-driven: the segment layout fixed the count
		for rep := 0; rep < reps; rep++ {
			doRep(rep)
		}
		bytes = int64(reps) * l * n
		if m == InitialWrite {
			st.writtenReps[p.Num] = reps
		}
	}
	el := c.Wtime() - start
	secs := c.AllreduceFloat64(mpi.OpMax, []float64{el})[0]
	pm := PatternMeasurement{Pattern: p, Reps: reps, Bytes: bytes, Seconds: secs}
	if secs > 0 {
		pm.BW = float64(bytes) / secs
	}
	return pm
}

// patOffset reports where a pattern's data region begins in its type's
// file; the paper's footnote 1: "the alignment is implicitly defined
// by the data written by all previous patterns in the same pattern
// type". During the initial write the running cursor of the type is
// used; afterwards the recorded region.
func (st *runState) patOffset(p Pattern) int64 {
	if b, ok := st.patOffsets[p.Num]; ok {
		return b
	}
	return st.typeCursor[p.Type]
}

// recordRegion notes an initial write's repetitions and region and
// advances the type's cursor past its size bytes.
func (st *runState) recordRegion(p Pattern, base int64, reps int, size int64) {
	st.writtenReps[p.Num] = reps
	st.patOffsets[p.Num] = base
	st.typeCursor[p.Type] = base + size
}
