package simfs

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hpcbench/beff/internal/des"
)

const (
	kB = 1 << 10
	mB = 1 << 20
)

// testCfg is a 4-server filesystem with easy round numbers: 100 MB/s
// disks, 1 GB/s cache, 64 kB stripes, 4 kB blocks, 5 ms seeks.
func testCfg() Config {
	return Config{
		Name:               "testfs",
		Servers:            4,
		StripeUnit:         64 * kB,
		BlockSize:          4 * kB,
		WriteBandwidth:     100e6,
		ReadBandwidth:      100e6,
		SeekTime:           5 * des.Millisecond,
		RequestOverhead:    10 * des.Microsecond,
		OpenCost:           1 * des.Millisecond,
		CloseCost:          1 * des.Millisecond,
		Clients:            8,
		ClientBandwidth:    0,
		CacheSizePerServer: 4 * mB,
		MemoryBandwidth:    1e9,
		AllocPerBlock:      0,
	}
}

// runFS executes body in a fresh single-proc engine against a fresh FS.
func runFS(t *testing.T, cfg Config, body func(p *des.Proc, fs *FS)) {
	t.Helper()
	fs := MustNew(cfg)
	eng := des.NewEngine()
	if err := eng.Run(1, func(p *des.Proc) { body(p, fs) }); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Servers: 0, StripeUnit: 1, BlockSize: 1, Clients: 1},
		{Servers: 1, StripeUnit: 0, BlockSize: 1, Clients: 1},
		{Servers: 1, StripeUnit: 1, BlockSize: 0, Clients: 1},
		{Servers: 1, StripeUnit: 1, BlockSize: 1, Clients: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(testCfg()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestOpenCloseCosts(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		if p.Now() != des.Time(1*des.Millisecond) {
			t.Errorf("open cost not charged: %v", p.Now())
		}
		f.Close(p)
		if p.Now() != des.Time(2*des.Millisecond) {
			t.Errorf("close cost not charged: %v", p.Now())
		}
	})
}

func TestWriteAbsorbedByCacheAtMemorySpeed(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		start := p.Now()
		f.WriteAt(p, 0, 0, 1*mB, nil)
		el := p.Now().Sub(start)
		// 1 MB fits in cache: ~1 MB / 1 GB/s ≈ 1 ms, far below the
		// 10 ms the disk would need.
		if el > 3*des.Millisecond {
			t.Errorf("cached write took %v, want ~1ms", el)
		}
	})
}

func TestSyncWaitsForDrain(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		f.WriteAt(p, 0, 0, 1*mB, nil)
		beforeSync := p.Now()
		f.Sync(p)
		// Disk needs ~10 ms for 1 MB (plus a seek); sync must wait.
		if p.Now().Sub(beforeSync) < 5*des.Millisecond {
			t.Errorf("sync returned before drain: %v", p.Now().Sub(beforeSync))
		}
	})
}

func TestCacheOverflowThrottlesToDiskRate(t *testing.T) {
	cfg := testCfg()
	cfg.CacheSizePerServer = 1 * mB // 4 MB total cache
	runFS(t, cfg, func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		start := p.Now()
		total := int64(64 * mB) // 16x the cache
		var off int64
		for off < total {
			f.WriteAt(p, 0, off, 4*mB, nil)
			off += 4 * mB
		}
		el := p.Now().Sub(start).Seconds()
		// Aggregate disk rate 4 servers x 100 MB/s = 400 MB/s →
		// 64 MB ≈ 0.16 s (+cache head start). Must be within 2x.
		if el < 0.10 || el > 0.35 {
			t.Errorf("64MB over 4MB cache took %.3fs, want ~0.15s", el)
		}
	})
}

func TestSeekPenaltyForRandomAccess(t *testing.T) {
	cfg := testCfg()
	cfg.CacheSizePerServer = 0 // make timing disk-bound
	cfg.MemoryBandwidth = 0
	seq := func() des.Duration {
		var el des.Duration
		runFS(t, cfg, func(p *des.Proc, fs *FS) {
			f := fs.Open(p, "a")
			start := p.Now()
			for i := int64(0); i < 16; i++ {
				f.WriteAt(p, 0, i*64*kB, 64*kB, nil)
			}
			f.Sync(p)
			el = p.Now().Sub(start)
		})
		return el
	}()
	rnd := func() des.Duration {
		var el des.Duration
		runFS(t, cfg, func(p *des.Proc, fs *FS) {
			f := fs.Open(p, "a")
			start := p.Now()
			// Same 16 stripes but in a scrambled order: extra seeks.
			order := []int64{3, 11, 1, 9, 14, 6, 0, 8, 13, 5, 2, 10, 15, 7, 4, 12}
			for _, i := range order {
				f.WriteAt(p, 0, i*64*kB, 64*kB, nil)
			}
			f.Sync(p)
			el = p.Now().Sub(start)
		})
		return el
	}()
	if rnd <= seq {
		t.Errorf("random order (%v) should be slower than sequential (%v)", rnd, seq)
	}
}

func TestSequentialPerServerNoExtraSeeks(t *testing.T) {
	cfg := testCfg()
	runFS(t, cfg, func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		// One full pass over 4 stripes: first touch of each server is a
		// seek; the second round-robin pass continues where each server
		// left off, so no further seeks.
		for i := int64(0); i < 8; i++ {
			f.WriteAt(p, 0, i*64*kB, 64*kB, nil)
		}
		if fs.Seeks() != 4 {
			t.Errorf("seeks = %d, want 4 (one per server)", fs.Seeks())
		}
	})
}

func TestNonWellformedWritePaysRMW(t *testing.T) {
	cfg := testCfg()
	cfg.CacheSizePerServer = 0
	cfg.MemoryBandwidth = 0
	elapsed := func(chunk int64) des.Duration {
		var el des.Duration
		runFS(t, cfg, func(p *des.Proc, fs *FS) {
			f := fs.Open(p, "a")
			start := p.Now()
			var off int64
			for i := 0; i < 32; i++ {
				f.WriteAt(p, 0, off, chunk, nil)
				off += chunk
			}
			f.Sync(p)
			el = p.Now().Sub(start)
		})
		return el
	}
	wf := elapsed(32 * kB)
	nwf := elapsed(32*kB + 8)
	// The +8 bytes misalign every request: seeks + RMW should cost at
	// least 3x.
	if float64(nwf) < 3*float64(wf) {
		t.Errorf("non-wellformed %v should be >>3x wellformed %v", nwf, wf)
	}
}

func TestRewriteFasterThanInitialWrite(t *testing.T) {
	cfg := testCfg()
	cfg.AllocPerBlock = 100 * des.Microsecond
	cfg.CacheSizePerServer = 0
	cfg.MemoryBandwidth = 0
	runFS(t, cfg, func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		start := p.Now()
		f.WriteAt(p, 0, 0, 1*mB, nil)
		f.Sync(p)
		initial := p.Now().Sub(start)
		start = p.Now()
		f.WriteAt(p, 0, 0, 1*mB, nil)
		f.Sync(p)
		rewrite := p.Now().Sub(start)
		if rewrite >= initial {
			t.Errorf("rewrite (%v) should beat initial write (%v)", rewrite, initial)
		}
	})
}

func TestReadHitsCacheAfterWrite(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		f.WriteAt(p, 0, 0, 1*mB, nil)
		f.Sync(p)
		start := p.Now()
		f.ReadAt(p, 0, 0, 1*mB)
		el := p.Now().Sub(start)
		// Cache hit ≈ 1 ms at memory speed; a disk read would be 10+ ms.
		if el > 3*des.Millisecond {
			t.Errorf("read after write took %v, want cache-speed ~1ms", el)
		}
	})
}

func TestReadMissesAfterEviction(t *testing.T) {
	cfg := testCfg()
	cfg.CacheSizePerServer = 1 * mB // 4 MB total
	runFS(t, cfg, func(p *des.Proc, fs *FS) {
		a := fs.Open(p, "a")
		a.WriteAt(p, 0, 0, 2*mB, nil)
		// Write 3x the total cache to another file: evicts a's data.
		b := fs.Open(p, "b")
		for off := int64(0); off < 12*mB; off += 4 * mB {
			b.WriteAt(p, 0, off, 4*mB, nil)
		}
		b.Sync(p)
		start := p.Now()
		a.ReadAt(p, 0, 0, 2*mB)
		el := p.Now().Sub(start)
		// Must come from disk: 2 MB over 4 x 100 MB/s ≥ 5 ms.
		if el < 4*des.Millisecond {
			t.Errorf("read after eviction took %v, want disk-speed", el)
		}
	})
}

func TestCacheMeasurementTrap(t *testing.T) {
	// The §5.4 phenomenon: a benchmark whose dataset fits in the cache
	// measures memory bandwidth, far above disk hardware peak.
	cfg := testCfg()
	cfg.CacheSizePerServer = 1024 * mB // 4 GB cache like the SX-5
	runFS(t, cfg, func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		start := p.Now()
		f.WriteAt(p, 0, 0, 64*mB, nil)
		el := p.Now().Sub(start).Seconds()
		bw := 64e6 * 1.048576 / el
		if bw < 600e6 {
			t.Errorf("cache-resident benchmark should report ~memory bandwidth, got %.0f MB/s", bw/1e6)
		}
	})
}

func TestStripingParallelClients(t *testing.T) {
	// Four clients writing to four different stripes: server-parallel,
	// so aggregate bandwidth ≈ 4x one server.
	cfg := testCfg()
	cfg.CacheSizePerServer = 0
	cfg.MemoryBandwidth = 0
	cfg.SeekTime = 0
	fs := MustNew(cfg)
	eng := des.NewEngine()
	var maxEnd des.Time
	err := eng.Run(4, func(p *des.Proc) {
		f := fs.Open(p, "shared")
		f.WriteAt(p, p.ID(), int64(p.ID())*64*kB, 64*kB, nil)
		f.Sync(p)
		if p.Now() > maxEnd {
			maxEnd = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 64 kB per server at 100 MB/s ≈ 0.66 ms (+open 1ms, overheads).
	if maxEnd > des.Time(4*des.Millisecond) {
		t.Errorf("parallel striped writes took %v, want ~1.7ms", maxEnd)
	}
}

func TestClientChannelLimitsSingleClient(t *testing.T) {
	cfg := testCfg()
	cfg.ClientBandwidth = 10e6 // 10 MB/s per client
	runFS(t, cfg, func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		start := p.Now()
		f.WriteAt(p, 0, 0, 1*mB, nil)
		el := p.Now().Sub(start).Seconds()
		// ~1 MB at 10 MB/s ≥ 0.1 s even though cache would absorb it.
		if el < 0.09 {
			t.Errorf("client channel should throttle: took %.3fs", el)
		}
	})
}

func TestContentRoundTrip(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "data")
		msg := []byte("the coffee-cup rule of I/O sizing")
		f.WriteAt(p, 0, 100, int64(len(msg)), msg)
		got := f.ReadAt(p, 0, 100, int64(len(msg)))
		if string(got) != string(msg) {
			t.Errorf("round trip got %q", got)
		}
	})
}

func TestContentOverlappingWrites(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "data")
		f.WriteAt(p, 0, 0, 8, []byte("AAAAAAAA"))
		f.WriteAt(p, 0, 4, 8, []byte("BBBBBBBB"))
		got := f.ReadAt(p, 0, 0, 12)
		if string(got) != "AAAABBBBBBBB" {
			t.Errorf("overlap merge got %q", got)
		}
	})
}

func TestFileSizeTracksHighWater(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		f.WriteAt(p, 0, 10*mB, 1*mB, nil)
		if f.Size() != 11*mB {
			t.Errorf("size = %d, want %d", f.Size(), 11*mB)
		}
		f.WriteAt(p, 0, 0, 1, nil)
		if f.Size() != 11*mB {
			t.Errorf("size shrank to %d", f.Size())
		}
	})
}

func TestDeleteAndExists(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		fs.Open(p, "a")
		if !fs.Exists("a") {
			t.Error("file should exist after open")
		}
		fs.Delete(p, "a")
		if fs.Exists("a") {
			t.Error("file should be gone after delete")
		}
	})
}

func TestAccessDeletedFileFails(t *testing.T) {
	fs := MustNew(testCfg())
	eng := des.NewEngine()
	err := eng.Run(1, func(p *des.Proc) {
		f := fs.Open(p, "a")
		fs.Delete(p, "a")
		f.WriteAt(p, 0, 0, 100, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("want deleted-file error, got %v", err)
	}
}

func TestNegativeOffsetFails(t *testing.T) {
	fs := MustNew(testCfg())
	eng := des.NewEngine()
	err := eng.Run(1, func(p *des.Proc) {
		f := fs.Open(p, "a")
		f.ReadAt(p, 0, -5, 100)
	})
	if err == nil {
		t.Fatal("want error for negative offset")
	}
}

func TestSplitCoversExactly(t *testing.T) {
	fs := MustNew(testCfg())
	file := &File{fs: fs, name: "x", shift: 2}
	f := func(offRaw, sizeRaw uint32) bool {
		off := int64(offRaw) % (10 * mB)
		size := int64(sizeRaw)%(3*mB) + 1
		ps := fs.split(file, off, size)
		var sum int64
		cur := off
		for _, pc := range ps {
			if pc.off != cur || pc.size < 1 {
				return false
			}
			// No piece crosses a stripe boundary.
			if pc.off/fs.cfg.StripeUnit != (pc.off+pc.size-1)/fs.cfg.StripeUnit {
				return false
			}
			cur += pc.size
			sum += pc.size
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSpan(t *testing.T) {
	fs := MustNew(testCfg()) // 4 kB blocks, 512 B sectors
	cases := []struct {
		off, size int64
		span      int64
		aligned   bool
	}{
		{0, 4 * kB, 4 * kB, true},
		{0, 8 * kB, 8 * kB, true},
		{0, 4*kB + 8, 8 * kB, false},
		{8, 4 * kB, 8 * kB, false},
		{4 * kB, 4 * kB, 4 * kB, true},
		{0, 1, 4 * kB, false},
		// Sub-block but sector-aligned: no read-modify-write needed.
		{0, 512, 4 * kB, true},
		{32 * kB, 32 * kB, 32 * kB, true},
	}
	for _, c := range cases {
		span := fs.blockSpan(c.off, c.size)
		aligned := fs.sectorAligned(c.off, c.size)
		if span != c.span || aligned != c.aligned {
			t.Errorf("off=%d size=%d = (%d,%v), want (%d,%v)",
				c.off, c.size, span, aligned, c.span, c.aligned)
		}
	}
}

func TestZeroSizeAccessOnlyOverhead(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		before := p.Now()
		f.WriteAt(p, 0, 0, 0, nil)
		if p.Now().Sub(before) != 10*des.Microsecond {
			t.Errorf("zero write cost %v, want 10us", p.Now().Sub(before))
		}
	})
}

func TestTotalsAccounting(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		f.WriteAt(p, 0, 0, 1000, nil)
		f.WriteAt(p, 0, 1000, 500, nil)
		f.ReadAt(p, 0, 0, 700)
		if fs.TotalWritten() != 1500 {
			t.Errorf("written = %d", fs.TotalWritten())
		}
		if fs.TotalRead() != 700 {
			t.Errorf("read = %d", fs.TotalRead())
		}
	})
}

func TestNameShiftSpreadsFiles(t *testing.T) {
	// Different file names should not all start on the same server.
	shifts := map[int]bool{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		shifts[nameShift(name, 8)] = true
	}
	if len(shifts) < 3 {
		t.Errorf("shift distribution too narrow: %v", shifts)
	}
	// Deterministic.
	if nameShift("beffio_type2.r0", 10) != nameShift("beffio_type2.r0", 10) {
		t.Error("nameShift not stable")
	}
}

func TestSeparateFilesSpreadAcrossServers(t *testing.T) {
	// Eight 1-stripe files opened fresh: their first stripes must not
	// all land on one server.
	cfg := testCfg()
	fs := MustNew(cfg)
	eng := des.NewEngine()
	used := map[int]bool{}
	err := eng.Run(1, func(p *des.Proc) {
		for i := 0; i < 8; i++ {
			f := fs.Open(p, fmt.Sprintf("file.%d", i))
			used[fs.serverOf(f, 0).id] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(used) < 3 {
		t.Errorf("first stripes clustered on %d servers", len(used))
	}
}

func TestBackgroundLoadValidation(t *testing.T) {
	cfg := testCfg()
	cfg.BackgroundLoad = 1.2
	if _, err := New(cfg); err == nil {
		t.Error("load >= 1 should be rejected")
	}
	cfg.BackgroundLoad = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative load should be rejected")
	}
}

func TestBackgroundLoadSlowsDisk(t *testing.T) {
	elapsed := func(load float64) des.Duration {
		cfg := testCfg()
		cfg.BackgroundLoad = load
		cfg.CacheSizePerServer = 0
		cfg.MemoryBandwidth = 0
		var el des.Duration
		runFS(t, cfg, func(p *des.Proc, fs *FS) {
			f := fs.Open(p, "a")
			start := p.Now()
			f.WriteAt(p, 0, 0, 4*mB, nil)
			f.Sync(p)
			el = p.Now().Sub(start)
		})
		return el
	}
	idle := elapsed(0)
	half := elapsed(0.5)
	ratio := float64(half) / float64(idle)
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("50%% background load should ~double disk time: ratio %.2f", ratio)
	}
}

func TestWarmAccessAllocatesNothing(t *testing.T) {
	runFS(t, testCfg(), func(p *des.Proc, fs *FS) {
		f := fs.Open(p, "a")
		// Four stripe units per access, so split makes several pieces.
		access := func() {
			f.Access(p, 0, 0, 4*64*kB, nil, true)
			f.Access(p, 0, 0, 4*64*kB, nil, false)
		}
		access()
		if n := testing.AllocsPerRun(100, access); n != 0 {
			t.Errorf("warm Access: %.1f allocs per write and read", n)
		}
	})
}
