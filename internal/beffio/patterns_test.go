package beffio

import (
	"testing"
	"testing/quick"

	"github.com/hpcbench/beff/internal/workload"
)

func TestTable2Structure(t *testing.T) {
	pats := Table2(2 * mB)
	if len(pats) != 43 {
		t.Fatalf("Table 2 has %d patterns, want 43 (numbered 0-42)", len(pats))
	}
	for i, p := range pats {
		if p.Num != i {
			t.Errorf("pattern %d numbered %d", i, p.Num)
		}
	}
}

func TestTable2SumUIs64(t *testing.T) {
	sum := 0
	for _, p := range Table2(2 * mB) {
		sum += p.U
	}
	if sum != SumU {
		t.Fatalf("ΣU = %d, want %d as in Table 2", sum, SumU)
	}
}

func TestTable2Has36TimedPatterns(t *testing.T) {
	timed := 0
	for _, p := range Table2(2 * mB) {
		if p.U > 0 {
			timed++
		}
	}
	if timed != TimedPatternCount {
		t.Fatalf("%d timed patterns, the paper uses %d", timed, TimedPatternCount)
	}
}

func TestTable2TypeBlocks(t *testing.T) {
	pats := Table2(2 * mB)
	// Blocks: type 0 = 0-8, type 1 = 9-16, type 2 = 17-24,
	// type 3 = 25-33, type 4 = 34-42.
	blocks := []struct {
		t        PatternType
		from, to int
	}{
		{Scatter, 0, 8},
		{SharedColl, 9, 16},
		{Separate, 17, 24},
		{Segmented, 25, 33},
		{SegmentedColl, 34, 42},
	}
	for _, b := range blocks {
		for i := b.from; i <= b.to; i++ {
			if pats[i].Type != b.t {
				t.Errorf("pattern %d type %v, want %v", i, pats[i].Type, b.t)
			}
		}
	}
}

func TestTable2ScatterRows(t *testing.T) {
	mpart := int64(4 * mB)
	pats := Table2(mpart)
	type row struct {
		l, L int64
		u    int
	}
	want := []row{
		{1 * mB, 1 * mB, 0},
		{mpart, mpart, 4},
		{1 * mB, 2 * mB, 4},
		{1 * mB, 1 * mB, 4},
		{32 * kB, 1 * mB, 2},
		{1 * kB, 1 * mB, 2},
		{32*kB + 8, 1*mB + 256, 2},
		{1*kB + 8, 1*mB + 8*kB, 2},
		{1*mB + 8, 1*mB + 8, 2},
	}
	for i, w := range want {
		p := pats[i]
		if p.DiskChunk != w.l || p.MemChunk != w.L || p.U != w.u {
			t.Errorf("pattern %d = (l=%d,L=%d,U=%d), want (%d,%d,%d)",
				i, p.DiskChunk, p.MemChunk, p.U, w.l, w.L, w.u)
		}
	}
}

func TestTable2ScatterChunksPerCallExact(t *testing.T) {
	// The non-wellformed scatter rows are constructed so L/l is an
	// integer: 32 chunks of 32kB+8 = 1MB+256B etc.
	for _, p := range Table2(2 * mB) {
		if p.Type != Scatter || p.DiskChunk == workload.FillUp {
			continue
		}
		k := p.ChunksPerCall()
		if k*p.DiskChunk != p.MemChunk {
			t.Errorf("pattern %d: L=%d not an exact multiple of l=%d", p.Num, p.MemChunk, p.DiskChunk)
		}
	}
}

func TestTable2NonScatterLEqualsDisk(t *testing.T) {
	for _, p := range Table2(2 * mB) {
		if p.Type == Scatter || p.DiskChunk == workload.FillUp {
			continue
		}
		if p.MemChunk != p.DiskChunk {
			t.Errorf("pattern %d: L=%d should be :=l (%d)", p.Num, p.MemChunk, p.DiskChunk)
		}
	}
}

func TestTable2WellformedFlags(t *testing.T) {
	for _, p := range Table2(2 * mB) {
		if p.DiskChunk == workload.FillUp {
			continue
		}
		isPow2 := p.DiskChunk&(p.DiskChunk-1) == 0
		if p.Wellformed != isPow2 {
			t.Errorf("pattern %d: wellformed=%v but chunk %d pow2=%v",
				p.Num, p.Wellformed, p.DiskChunk, isPow2)
		}
	}
}

func TestTable2FillUpPatterns(t *testing.T) {
	pats := Table2(2 * mB)
	for _, num := range []int{33, 42} {
		if pats[num].DiskChunk != workload.FillUp || pats[num].U != 0 {
			t.Errorf("pattern %d should be the U=0 fill-up, got %+v", num, pats[num])
		}
	}
}

func TestTable2MPartQuick(t *testing.T) {
	f := func(raw uint8) bool {
		mpart := (int64(raw)%62 + 2) * mB
		pats := Table2(mpart)
		// MPART appears as pattern 1, 10, 18, 26, 35.
		for _, num := range []int{1, 10, 18, 26, 35} {
			if pats[num].DiskChunk != mpart {
				return false
			}
		}
		sum := 0
		for _, p := range pats {
			sum += p.U
		}
		return sum == SumU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeWeights(t *testing.T) {
	if Scatter.Weight() != 2 {
		t.Error("scatter type must count double")
	}
	for _, typ := range []PatternType{SharedColl, Separate, Segmented, SegmentedColl} {
		if typ.Weight() != 1 {
			t.Errorf("%v weight = %v", typ, typ.Weight())
		}
	}
}

func TestMethodWeights(t *testing.T) {
	total := 0.0
	for m := AccessMethod(0); m < NumMethods; m++ {
		total += m.Weight()
	}
	if total != 1.0 {
		t.Errorf("method weights sum to %v", total)
	}
	if Read.Weight() != 0.5 {
		t.Error("read must carry half the weight")
	}
}
