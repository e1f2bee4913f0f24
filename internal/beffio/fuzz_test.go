package beffio

import (
	"testing"

	"github.com/hpcbench/beff/internal/workload"
)

// FuzzTable2 checks that the resolved pattern table keeps the paper's
// scheduling contract for any plausible M_PART: 43 rows numbered in
// order, 36 timed patterns sharing exactly 64 time units, memory
// chunks that are whole multiples of their disk chunks, and fill-up
// rows only where the segmented types put them.
func FuzzTable2(f *testing.F) {
	f.Add(int64(2 * mB))       // the M_PART floor
	f.Add(int64(4 * mB))       // the SP/T3E value for 512 MB nodes
	f.Add(int64(2*mB + 12345)) // non-power-of-two
	f.Add(int64(1) << 38)      // 256 GB: far above any modelled node
	f.Fuzz(func(t *testing.T, mpart int64) {
		if mpart < 2*mB || mpart > int64(1)<<40 {
			t.Skip("outside the M_PART contract: max(2 MB, mem/128)")
		}
		pats := Table2(mpart)
		if len(pats) != 43 {
			t.Fatalf("Table2(%d): %d rows, want 43", mpart, len(pats))
		}
		sumU, timed := 0, 0
		for i, p := range pats {
			if p.Num != i {
				t.Fatalf("row %d numbered %d", i, p.Num)
			}
			if p.U < 0 {
				t.Fatalf("pattern %d: negative U %d", i, p.U)
			}
			sumU += p.U
			if p.U > 0 {
				timed++
			}
			if p.DiskChunk == workload.FillUp {
				if p.MemChunk != workload.FillUp || p.U != 0 {
					t.Fatalf("pattern %d: malformed fill-up row %+v", i, p)
				}
				if p.Type != Segmented && p.Type != SegmentedColl {
					t.Fatalf("pattern %d: fill-up in non-segmented type %v", i, p.Type)
				}
				continue
			}
			if p.DiskChunk <= 0 || p.MemChunk < p.DiskChunk {
				t.Fatalf("pattern %d: bad chunk sizes l=%d L=%d", i, p.DiskChunk, p.MemChunk)
			}
			if p.MemChunk%p.DiskChunk != 0 {
				t.Fatalf("pattern %d: L=%d not a multiple of l=%d", i, p.MemChunk, p.DiskChunk)
			}
			if cpc := p.ChunksPerCall(); cpc < 1 {
				t.Fatalf("pattern %d: ChunksPerCall %d", i, cpc)
			}
		}
		if sumU != SumU {
			t.Fatalf("Table2(%d): ΣU = %d, want %d", mpart, sumU, SumU)
		}
		if timed != TimedPatternCount {
			t.Fatalf("Table2(%d): %d timed patterns, want %d", mpart, timed, TimedPatternCount)
		}
	})
}

// FuzzSegmentLayout drives the segment-size calculation with
// pseudo-random measured repetition counts (derived deterministically
// from the fuzzed seed — the fuzzer explores seeds, the layout stays
// reproducible). The paper's §5.4 contract: the segment is a positive
// multiple of 1 MB strictly larger than the laid-out rows, so the
// fill-up pattern always has something to write; row offsets are
// nondecreasing with every repetition count in [1, MaxRepsPerPattern].
func FuzzSegmentLayout(f *testing.F) {
	f.Add(uint64(0), int64(2*mB), 16)
	f.Add(uint64(1), int64(4*mB), 1)
	f.Add(uint64(0xdeadbeef), int64(2*mB+777), 1<<20)
	f.Fuzz(func(t *testing.T, seed uint64, mpart int64, maxReps int) {
		if mpart < 2*mB || mpart > int64(1)<<40 {
			t.Skip("M_PART outside contract")
		}
		if maxReps < 1 || maxReps > 1<<20 {
			t.Skip("MaxRepsPerPattern outside [1, 1<<20]")
		}
		pats := Table2(mpart)
		defs := pats[25:34] // type 3: eight chunk rows plus the fill-up

		// A splitmix-style generator: the measured repetition counts the
		// layout averages over, as arbitrary as a perturbed run makes them.
		x := seed
		next := func() int {
			x += 0x9e3779b97f4a7c15
			z := x
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			return int(z % (1 << 21))
		}
		st := &runState{
			opt:         Options{MaxRepsPerPattern: maxReps},
			writtenReps: map[int]int{},
		}
		for _, p := range defs {
			if p.DiskChunk == workload.FillUp {
				continue
			}
			st.writtenReps[p.Num-16] = next() // type-1 sibling
			st.writtenReps[p.Num-8] = next()  // type-2 sibling
		}
		st.computeSegmentSize(defs)

		if st.segmentSize <= 0 || st.segmentSize%mB != 0 {
			t.Fatalf("segment size %d not a positive multiple of 1 MB", st.segmentSize)
		}
		if st.segRowOffs[0] != 0 {
			t.Fatalf("first row offset %d, want 0", st.segRowOffs[0])
		}
		for i := 1; i < len(st.segRowOffs); i++ {
			if st.segRowOffs[i] < st.segRowOffs[i-1] {
				t.Fatalf("row offsets decrease: %v", st.segRowOffs)
			}
		}
		last := st.segRowOffs[len(st.segRowOffs)-1]
		if st.segmentSize <= last {
			t.Fatalf("segment %d leaves no room for fill-up past offset %d", st.segmentSize, last)
		}
		for i, reps := range st.segRowReps {
			if reps < 1 || reps > maxReps {
				t.Fatalf("row %d: repetition count %d outside [1,%d]", i, reps, maxReps)
			}
			if defs[i].U == 0 && reps != 1 {
				t.Fatalf("untimed row %d got %d repetitions", i, reps)
			}
		}
		// Accessors must be total: out-of-range rows fall back to the
		// benign defaults the exec path relies on.
		if st.segReps(len(st.segRowReps)+3) != 1 || st.segPatOffset(len(st.segRowOffs)+3) != 0 {
			t.Fatal("out-of-range segment accessors not defaulted")
		}
		// The layout is a pure function of its inputs.
		st2 := &runState{opt: st.opt, writtenReps: st.writtenReps}
		st2.computeSegmentSize(defs)
		if st2.segmentSize != st.segmentSize {
			t.Fatalf("same inputs, different segment: %d vs %d", st.segmentSize, st2.segmentSize)
		}
	})
}
