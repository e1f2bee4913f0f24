package beffio

import (
	"math/rand"

	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
)

// Random access patterns — the paper's §6 future work: "although [1]
// stated that 'the majority of the request patterns are sequential',
// we should examine whether random access patterns can be included
// into the b_eff_io benchmark." This file implements that examination
// as an optional extension: noncollective reads and writes at seeded
// random offsets within an already-written file, per chunk size. The
// results are reported separately and do NOT enter the b_eff_io
// average, preserving the published definition.

// RandomAccessMeasurement reports the random-access extension for one
// chunk size.
type RandomAccessMeasurement struct {
	Chunk   int64
	ReadBW  float64 // bytes/s, aggregate across processes
	WriteBW float64
	Reps    int // per process
}

// RandomAccessChunks are the chunk sizes the extension probes.
var RandomAccessChunks = []int64{1 * kB, 32 * kB, 1 * mB}

// runRandomAccess measures random-offset noncollective access against
// the scatter-type file (the largest one written by the main schedule).
// Each process draws its own offset stream from the seed; termination
// is time-driven and process-local like the separated-files type.
func (st *runState) runRandomAccess(seed int64) []RandomAccessMeasurement {
	c := st.c
	name := st.fileName(Scatter)
	if !st.fs.Exists(name) {
		return nil
	}
	f, err := mpiio.Open(c, st.fs, name, mpiio.ModeRdWr, st.opt.Info)
	if err != nil {
		return nil
	}
	defer f.Close()
	span := f.Size()
	var out []RandomAccessMeasurement
	for _, chunk := range RandomAccessChunks {
		if span <= chunk {
			continue
		}
		slots := span / chunk
		rng := rand.New(rand.NewSource(seed + chunk + int64(c.Rank())*7919))
		m := RandomAccessMeasurement{Chunk: chunk}
		for _, write := range []bool{false, true} {
			// A small fixed slice of the schedule: one time unit.
			start := c.Wtime()
			reps := st.timeDrivenLocal(Pattern{U: 1}, func(int) {
				off := rng.Int63n(slots) * chunk
				if write {
					f.WriteAt(off, chunk, nil)
				} else {
					f.ReadAt(off, chunk)
				}
			})
			el := c.Wtime() - start
			secs := mpi.AllreduceValue(c, mpi.OpMax, el)
			total := mpi.AllreduceValue(c, mpi.OpSum, int64(reps)*chunk)
			bw := 0.0
			if secs > 0 {
				bw = float64(total) / secs
			}
			if write {
				m.WriteBW = bw
			} else {
				m.ReadBW = bw
			}
			m.Reps = reps
		}
		out = append(out, m)
	}
	return out
}
