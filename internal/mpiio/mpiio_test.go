package mpiio

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/simnet"
)

const (
	kB = 1 << 10
	mB = 1 << 20
)

func testFSCfg() simfs.Config {
	return simfs.Config{
		Name:               "testfs",
		Servers:            4,
		StripeUnit:         64 * kB,
		BlockSize:          4 * kB,
		WriteBandwidth:     100e6,
		ReadBandwidth:      100e6,
		SeekTime:           2 * des.Millisecond,
		RequestOverhead:    20 * des.Microsecond,
		OpenCost:           100 * des.Microsecond,
		CloseCost:          100 * des.Microsecond,
		Clients:            16,
		CacheSizePerServer: 2 * mB,
		MemoryBandwidth:    1e9,
	}
}

func newTestNet(n int) *simnet.Net {
	return simnet.New(simnet.Config{
		Fabric:           simnet.NewCrossbar(n, 0, 1*des.Microsecond),
		TxBandwidth:      200e6,
		RxBandwidth:      200e6,
		SendOverhead:     2 * des.Microsecond,
		RecvOverhead:     2 * des.Microsecond,
		MemCopyBandwidth: 1e9,
	})
}

func runIO(t *testing.T, n int, cfg simfs.Config, body func(c *mpi.Comm, fs *simfs.FS)) {
	t.Helper()
	fs := simfs.MustNew(cfg)
	net := newTestNet(n)
	if err := mpi.Run(mpi.WorldConfig{Net: net}, func(c *mpi.Comm) { body(c, fs) }); err != nil {
		t.Fatal(err)
	}
}

func TestViewExtentsContiguous(t *testing.T) {
	v := ContiguousView(100)
	exts := v.extents(50, 1000)
	if len(exts) != 1 || exts[0].off != 150 || exts[0].size != 1000 {
		t.Fatalf("exts = %+v", exts)
	}
}

func TestViewExtentsStrided(t *testing.T) {
	// Blocks of 10 every 40, displacement 0: view offset 0..9 → file
	// 0..9, 10..19 → 40..49, etc.
	v := View{Disp: 0, BlockLen: 10, Stride: 40}
	exts := v.extents(5, 20)
	want := []extent{{5, 5}, {40, 10}, {80, 5}}
	if len(exts) != len(want) {
		t.Fatalf("exts = %+v", exts)
	}
	for i := range want {
		if exts[i] != want[i] {
			t.Errorf("ext %d = %+v, want %+v", i, exts[i], want[i])
		}
	}
}

func TestViewExtentsQuick(t *testing.T) {
	f := func(dispRaw, blockRaw, extraRaw uint16, offRaw, sizeRaw uint16) bool {
		disp := int64(dispRaw) % 1000
		block := int64(blockRaw)%500 + 1
		stride := block + int64(extraRaw)%500
		v := View{Disp: disp, BlockLen: block, Stride: stride}
		off := int64(offRaw) % 5000
		size := int64(sizeRaw)%5000 + 1
		exts := v.extents(off, size)
		var sum int64
		for i, e := range exts {
			sum += e.size
			if e.size < 1 || e.off < disp {
				return false
			}
			if i > 0 && e.off <= exts[i-1].off {
				return false // must be strictly increasing
			}
		}
		// Total bytes covered equals the request, and first byte maps
		// through fileOffset.
		return sum == size && exts[0].off == v.fileOffset(off)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestViewValidation(t *testing.T) {
	bad := []View{
		{Disp: -1, BlockLen: 1, Stride: 1},
		{Disp: 0, BlockLen: 0, Stride: 1},
		{Disp: 0, BlockLen: 10, Stride: 5},
	}
	for i, v := range bad {
		if v.validate() == nil {
			t.Errorf("view %d should be invalid", i)
		}
	}
}

func TestOpenRequiresAccessMode(t *testing.T) {
	runIO(t, 2, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		if _, err := Open(c, fs, "x", ModeCreate, Info{}); err == nil {
			t.Error("open without access mode should fail")
		}
	})
}

func TestOpenMissingFileFails(t *testing.T) {
	runIO(t, 2, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		if _, err := Open(c, fs, "nope", ModeRdOnly, Info{}); err == nil {
			t.Error("open of missing file without create should fail")
		}
	})
}

func TestWriteReadRoundTripNoncollective(t *testing.T) {
	runIO(t, 2, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, err := Open(c, fs, "rt", ModeCreate|ModeRdWr, Info{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Rank() == 0 {
			f.WriteAt(0, 11, []byte("hello mpiio"))
		}
		f.Sync()
		got := f.ReadAt(0, 11)
		if string(got) != "hello mpiio" {
			t.Errorf("rank %d read %q", c.Rank(), got)
		}
		f.Close()
	})
}

func TestIndividualPointerAdvances(t *testing.T) {
	runIO(t, 1, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "p", ModeCreate|ModeWrOnly, Info{})
		f.Write(100, nil)
		f.Write(100, nil)
		if f.Tell() != 200 {
			t.Errorf("pointer = %d, want 200", f.Tell())
		}
		if f.Size() != 200 {
			t.Errorf("size = %d, want 200", f.Size())
		}
		f.Close()
	})
}

func TestSetViewResetsPointers(t *testing.T) {
	runIO(t, 1, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "v", ModeCreate|ModeWrOnly, Info{})
		f.Write(100, nil)
		if err := f.SetView(View{Disp: 1000, BlockLen: 10, Stride: 20}); err != nil {
			t.Fatal(err)
		}
		if f.Tell() != 0 {
			t.Errorf("pointer after SetView = %d", f.Tell())
		}
		// A write through the view lands at the displacement.
		f.Write(10, nil)
		if f.Size() != 1010 {
			t.Errorf("size = %d, want 1010", f.Size())
		}
		f.Close()
	})
}

func TestStridedViewScattersOnDisk(t *testing.T) {
	runIO(t, 1, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "s", ModeCreate|ModeRdWr, Info{})
		f.SetView(View{Disp: 0, BlockLen: 8, Stride: 24})
		f.WriteAt(0, 16, []byte("AAAAAAAABBBBBBBB"))
		f.Sync()
		f.SetView(ContiguousView(0))
		got := f.ReadAt(0, 32)
		if string(got[0:8]) != "AAAAAAAA" || string(got[24:32]) != "BBBBBBBB" {
			t.Errorf("scatter layout wrong: %q", got)
		}
		f.Close()
	})
}

func TestWriteOnReadOnlyFails(t *testing.T) {
	fs := simfs.MustNew(testFSCfg())
	err := mpi.Run(mpi.WorldConfig{Net: newTestNet(1)}, func(c *mpi.Comm) {
		f, _ := Open(c, fs, "ro", ModeCreate|ModeRdOnly, Info{})
		f.WriteAt(0, 10, nil)
	})
	if err == nil {
		t.Fatal("write on read-only file should fail the run")
	}
}

func TestSharedPointerDisjointOffsets(t *testing.T) {
	const n = 4
	runIO(t, n, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "sh", ModeCreate|ModeWrOnly, Info{})
		// Each rank writes 100 bytes via the shared pointer; offsets
		// must be disjoint and the pointer must end at n*100.
		f.WriteShared(100, nil)
		f.Close()
		if c.Rank() == 0 {
			if got := f.sh.sharedPtr; got != n*100 {
				t.Errorf("shared pointer = %d, want %d", got, n*100)
			}
		}
	})
}

func TestWriteOrderedRankOrder(t *testing.T) {
	const n = 4
	runIO(t, n, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "ord", ModeCreate|ModeRdWr, Info{})
		payload := []byte{byte('A' + c.Rank()), byte('A' + c.Rank())}
		// Stagger entry times: rank order must still win.
		c.Proc().Sleep(des.Duration(n-c.Rank()) * des.Millisecond)
		f.WriteOrdered(2, payload)
		f.Sync()
		got := f.ReadAt(0, 2*n)
		if string(got) != "AABBCCDD" {
			t.Errorf("ordered write layout = %q, want AABBCCDD", got)
		}
		// Second ordered write continues after the first.
		f.WriteOrdered(2, payload)
		f.Sync()
		got = f.ReadAt(0, 4*n)
		if string(got) != "AABBCCDDAABBCCDD" {
			t.Errorf("second ordered write layout = %q", got)
		}
		f.Close()
	})
}

func TestCollectiveWriteAllCoversUnion(t *testing.T) {
	const n = 4
	runIO(t, n, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "wa", ModeCreate|ModeRdWr, Info{})
		// Interleaved strided views: rank r owns blocks of 1 kB every
		// n kB starting at r kB — the paper's scatter pattern type 0.
		f.SetView(View{Disp: int64(c.Rank()) * kB, BlockLen: kB, Stride: n * kB})
		f.WriteAll(16*kB, nil)
		f.Sync()
		if f.Size() != 64*kB {
			t.Errorf("union size = %d, want %d", f.Size(), 64*kB)
		}
		f.Close()
	})
}

func TestCollectiveFasterThanNoncollectiveForSmallChunks(t *testing.T) {
	// The central Fig. 4 phenomenon: interleaved 1 kB chunks via
	// two-phase collective I/O beat noncollective access by a lot.
	elapsed := func(collective bool) float64 {
		fs := simfs.MustNew(testFSCfg())
		var secs float64
		const n = 4
		err := mpi.Run(mpi.WorldConfig{Net: newTestNet(n)}, func(c *mpi.Comm) {
			f, _ := Open(c, fs, "bench", ModeCreate|ModeWrOnly, Info{})
			f.SetView(View{Disp: int64(c.Rank()) * kB, BlockLen: kB, Stride: n * kB})
			start := c.Wtime()
			if collective {
				f.WriteAll(256*kB, nil)
			} else {
				f.Write(256*kB, nil)
			}
			f.Sync()
			if c.Rank() == 0 {
				secs = c.Wtime() - start
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	coll := elapsed(true)
	noncoll := elapsed(false)
	if coll*3 > noncoll {
		t.Errorf("two-phase collective (%.4fs) should be >>3x faster than noncollective (%.4fs)", coll, noncoll)
	}
}

func TestNoCollectiveBufferingHintDegrades(t *testing.T) {
	elapsed := func(info Info) float64 {
		fs := simfs.MustNew(testFSCfg())
		var secs float64
		const n = 4
		err := mpi.Run(mpi.WorldConfig{Net: newTestNet(n)}, func(c *mpi.Comm) {
			f, _ := Open(c, fs, "hint", ModeCreate|ModeWrOnly, info)
			f.SetView(View{Disp: int64(c.Rank()) * kB, BlockLen: kB, Stride: n * kB})
			start := c.Wtime()
			f.WriteAll(64*kB, nil)
			f.Sync()
			if c.Rank() == 0 {
				secs = c.Wtime() - start
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	fast := elapsed(Info{})
	slow := elapsed(Info{NoCollectiveBuffering: true})
	if fast >= slow {
		t.Errorf("disabling collective buffering should hurt: with=%.4fs without=%.4fs", fast, slow)
	}
}

func TestCollectiveReadAll(t *testing.T) {
	const n = 4
	runIO(t, n, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "ra", ModeCreate|ModeRdWr, Info{})
		f.SetView(View{Disp: int64(c.Rank()) * kB, BlockLen: kB, Stride: n * kB})
		f.WriteAll(8*kB, nil)
		f.Sync()
		f.SeekSet(0)
		f.ReadAll(8 * kB)
		if f.Tell() != 8*kB {
			t.Errorf("pointer after ReadAll = %d", f.Tell())
		}
		f.Close()
	})
}

func TestDeleteOnClose(t *testing.T) {
	runIO(t, 2, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "tmp", ModeCreate|ModeWrOnly|ModeDeleteOnClose, Info{})
		f.WriteAt(0, 100, nil)
		f.Close()
		if fs.Exists("tmp") {
			t.Error("file should be deleted on close")
		}
	})
}

func TestMergeExtents(t *testing.T) {
	got := mergeExtents([]extent{{10, 5}, {0, 5}, {5, 5}, {30, 2}, {15, 1}})
	want := []extent{{0, 16}, {30, 2}}
	if len(got) != len(want) {
		t.Fatalf("merged = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeExtentsQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var exts []extent
		for i := 0; i+1 < len(raw); i += 2 {
			exts = append(exts, extent{int64(raw[i]), int64(raw[i+1])%100 + 1})
		}
		var total int64
		covered := map[int64]bool{}
		for _, e := range exts {
			for b := e.off; b < e.off+e.size; b++ {
				covered[b] = true
			}
		}
		total = int64(len(covered))
		merged := mergeExtents(exts)
		var sum int64
		for i, e := range merged {
			sum += e.size
			if i > 0 && e.off <= merged[i-1].off+merged[i-1].size {
				return false // must be disjoint, non-adjacent not required but non-overlapping
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorRanks(t *testing.T) {
	cases := []struct {
		a, size int
		want    []int
	}{
		{4, 8, []int{0, 2, 4, 6}},
		{2, 5, []int{0, 2}},
		{8, 4, []int{0, 1, 2, 3}},
		{1, 10, []int{0}},
	}
	for _, c := range cases {
		got := aggregatorRanks(c.a, c.size)
		if len(got) != len(c.want) {
			t.Errorf("aggregatorRanks(%d,%d) = %v", c.a, c.size, got)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("aggregatorRanks(%d,%d) = %v, want %v", c.a, c.size, got, c.want)
				break
			}
		}
	}
}

func TestSegmentedCollectiveSlowerThanSegmentedNoncollective(t *testing.T) {
	// The paper's SP observation: for the segmented layout (pattern
	// types 3 vs 4), the collective version can lose badly — the data
	// is already contiguous per rank, so two-phase only adds
	// redistribution and synchronisation.
	const n = 4
	const seg = 4 * mB
	elapsed := func(collective bool) float64 {
		fs := simfs.MustNew(testFSCfg())
		var secs float64
		err := mpi.Run(mpi.WorldConfig{Net: newTestNet(n)}, func(c *mpi.Comm) {
			f, _ := Open(c, fs, "seg", ModeCreate|ModeWrOnly, Info{})
			start := c.Wtime()
			var off int64 = int64(c.Rank()) * seg
			for i := 0; i < 4; i++ {
				if collective {
					f.WriteAllAt(off, 256*kB, nil)
				} else {
					f.WriteAt(off, 256*kB, nil)
				}
				off += 256 * kB
			}
			f.Sync()
			if c.Rank() == 0 {
				secs = c.Wtime() - start
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	noncoll := elapsed(false)
	coll := elapsed(true)
	if coll <= noncoll {
		t.Logf("collective=%.4fs noncollective=%.4fs", coll, noncoll)
		t.Error("segmented collective should not beat segmented noncollective")
	}
}

func TestTwoPhasePlanConservesBytes(t *testing.T) {
	// Property: for random strided views, the two-phase plan's send
	// matrix, receive matrix and aggregator runs all account for
	// exactly the bytes the ranks asked to move.
	const n = 4
	f := func(blockRaw, gapRaw, sizeRaw uint16) bool {
		block := int64(blockRaw)%(64*kB) + 1
		stride := block*int64(n) + int64(gapRaw)%512
		size := int64(sizeRaw)%(256*kB) + 1
		ok := true
		fs := simfs.MustNew(testFSCfg())
		err := mpi.Run(mpi.WorldConfig{Net: newTestNet(n)}, func(c *mpi.Comm) {
			file, err := Open(c, fs, "plan", ModeCreate|ModeWrOnly, Info{})
			if err != nil {
				c.Proc().Fail("%v", err)
			}
			file.SetView(View{Disp: int64(c.Rank()) * block, BlockLen: block, Stride: stride})
			exts := file.view.extents(0, size)
			seq := file.nextSeq()
			cs := file.sh.coord.state(seq, c.Size())
			cs.deposits[c.Rank()] = exts
			c.Barrier() // everyone deposited
			if c.Rank() == 0 {
				plan := file.makePlan(cs)
				var sent, recvd, covered int64
				for r := 0; r < n; r++ {
					for _, b := range plan.send[r] {
						sent += b
					}
					for _, b := range plan.recv[r] {
						recvd += b
					}
					for _, run := range plan.runs[r] {
						covered += run.size
					}
				}
				// Every rank moved `size` bytes; overlapping extents
				// between ranks may merge in runs, so covered <= total
				// but >= any single rank's share.
				if sent != int64(n)*size || recvd != sent {
					ok = false
				}
				if covered > sent || covered < size {
					ok = false
				}
			}
			c.Barrier()
			file.Close()
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveOnSubCommunicator(t *testing.T) {
	// Collective I/O on a Split communicator must only involve its
	// members; the other ranks do unrelated work concurrently.
	const n = 6
	runIO(t, n, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		sub := c.Split(c.Rank()%2, c.Rank())
		name := "sub0"
		if c.Rank()%2 == 1 {
			name = "sub1"
		}
		f, err := Open(sub, fs, name, ModeCreate|ModeWrOnly, Info{})
		if err != nil {
			t.Error(err)
			return
		}
		f.SetView(View{Disp: int64(sub.Rank()) * kB, BlockLen: kB, Stride: int64(sub.Size()) * kB})
		f.WriteAll(4*kB, nil)
		f.Sync()
		f.Close()
	})
}

func TestReopenPreservesFileState(t *testing.T) {
	runIO(t, 2, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "again", ModeCreate|ModeWrOnly, Info{})
		if c.Rank() == 0 {
			f.WriteAt(0, 9, []byte("persisted"))
		}
		f.Sync()
		f.Close()
		g, err := Open(c, fs, "again", ModeRdOnly, Info{})
		if err != nil {
			t.Error(err)
			return
		}
		if got := g.ReadAt(0, 9); string(got) != "persisted" {
			t.Errorf("reopen read %q", got)
		}
		g.Close()
	})
}

func TestTimingOnlyReadAllocatesNoBuffer(t *testing.T) {
	const size = 4 * mB
	runIO(t, 1, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "t", ModeCreate|ModeRdWr, Info{})
		f.WriteAt(0, size, nil)
		f.Sync()
		if got := f.ReadAt(0, size); got != nil {
			t.Errorf("timing-only read returned %d bytes, want nil", len(got))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(10, func() { f.ReadAt(0, size) })
		runtime.ReadMemStats(&after)
		// The simulated I/O path allocates a few small records per
		// request; a host buffer for the read would be size bytes.
		if allocs > 8 {
			t.Errorf("timing-only ReadAt: %.0f allocs/op", allocs)
		}
		if perOp := (after.TotalAlloc - before.TotalAlloc) / 11; perOp > size/64 {
			t.Errorf("timing-only ReadAt allocated %d bytes/op for a %d-byte read", perOp, size)
		}
		f.Close()
	})
}

func TestReadSpanningHolePayloadHole(t *testing.T) {
	// Rank 0 reads three 256 kB extents of a timing-only file through a
	// strided view; each takes ~86 us from the server caches. Between
	// the first extent's completion and the second's, rank 1 stores a
	// payload inside the second, so the first extent comes back without
	// payload and the later ones with it.
	const blk = 256 * kB
	runIO(t, 2, testFSCfg(), func(c *mpi.Comm, fs *simfs.FS) {
		f, _ := Open(c, fs, "h", ModeCreate|ModeRdWr, Info{})
		f.WriteAt(0, 5*blk, nil)
		f.Sync()
		c.Barrier()
		if c.Rank() == 1 {
			c.Proc().Sleep(110 * des.Microsecond)
			f.WriteAt(2*blk+8, 8, []byte("PAYLOAD!"))
			f.Close()
			return
		}
		f.SetView(View{Disp: 0, BlockLen: blk, Stride: 2 * blk})
		got := f.ReadAt(0, 3*blk)
		want := make([]byte, 3*blk)
		copy(want[blk+8:], "PAYLOAD!")
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("read %d bytes, want %d; first difference at %d", len(got), len(want), i)
		}
		f.Close()
	})
}
