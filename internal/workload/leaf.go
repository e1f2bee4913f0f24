package workload

import (
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
)

// The leaf kernel: the one place an access leaf becomes mpiio calls.
// Two executors share it. The streaming executor (run.go) repeats a
// leaf Count times over a region claimed from a cursor; b_eff_io's
// time-driven schedule (internal/beffio) repeats a Table 2 row until
// its slice of T runs out, over a region fixed by the paper's
// alignment rules. The executors decide where a leaf's data lives and
// how often it repeats; the kernel decides how one repetition touches
// the file.

// Access is one leaf placed on an open file: its view and shared
// pointer are set, and Rep performs one repetition.
type Access struct {
	f          *mpiio.File
	shared     bool // ordered accesses at the shared file pointer
	collective bool
	size       int64 // bytes this rank moves per repetition
	base       int64 // where the shared pointer rewinds to
	wrap       int
}

// Place sets f's view for a leaf of shape op (an Op* leaf constant)
// with disk chunk l whose region starts at base, and returns the leaf
// ready to repeat:
//
//	strided    rank r's chunks interleave from base + r*l with stride
//	           n*l; each repetition moves mem bytes (0 means l) in one
//	           collective call
//	shared     the shared pointer starts at base; each repetition is
//	           one ordered collective call of l bytes
//	separate,  rank r's contiguous region starts at base + r*segment
//	segmented  (segment is 0 for separate leaves, whose files are per
//	           rank); each repetition is one call of l bytes,
//	           collective if collective is set
//
// With wrap > 0 repetition rep reuses repetition rep%wrap's place, so
// rewrites and reads cycle over an already-written region; wrap 0
// walks forward without bound.
func Place(c *mpi.Comm, f *mpiio.File, op string, collective bool, l, mem, base, segment int64, wrap int) Access {
	a := Access{f: f, collective: collective, size: l, base: base, wrap: wrap}
	view := mpiio.ContiguousView(base + int64(c.Rank())*segment)
	switch op {
	case OpStrided:
		a.collective = true
		if mem > 0 {
			a.size = mem
		}
		view = mpiio.View{Disp: base + int64(c.Rank())*l, BlockLen: l, Stride: int64(c.Size()) * l}
	case OpShared:
		a.shared = true
		view = mpiio.ContiguousView(0)
	}
	if err := f.SetView(view); err != nil {
		c.Proc().Fail("workload: %s view: %v", op, err)
	}
	if a.shared {
		f.SeekShared(base)
	}
	return a
}

// Rep performs repetition rep as a read or a write and returns the
// bytes this rank moved.
func (a *Access) Rep(rep int, read bool) int64 {
	f := a.f
	if a.shared {
		if a.wrap > 0 && rep > 0 && rep%a.wrap == 0 {
			f.SeekShared(a.base)
		}
		if read {
			f.ReadOrdered(a.size)
		} else {
			f.WriteOrdered(a.size, nil)
		}
		return a.size
	}
	pos := int64(rep)
	if a.wrap > 0 {
		pos = int64(rep % a.wrap)
	}
	f.SeekSet(pos * a.size)
	switch {
	case read && a.collective:
		f.ReadAll(a.size)
	case read:
		f.Read(a.size)
	case a.collective:
		f.WriteAll(a.size, nil)
	default:
		f.Write(a.size, nil)
	}
	return a.size
}
