package beffio

import (
	"testing"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/simnet"
)

func testFS() *simfs.FS {
	return simfs.MustNew(simfs.Config{
		Name:               "test",
		Servers:            4,
		StripeUnit:         256 * kB,
		BlockSize:          64 * kB,
		WriteBandwidth:     100e6,
		ReadBandwidth:      120e6,
		SeekTime:           2 * des.Millisecond,
		RequestOverhead:    50 * des.Microsecond,
		OpenCost:           500 * des.Microsecond,
		CloseCost:          500 * des.Microsecond,
		Clients:            64,
		CacheSizePerServer: 8 * mB,
		MemoryBandwidth:    1e9,
		AllocPerBlock:      20 * des.Microsecond,
	})
}

func testWorld(n int) mpi.WorldConfig {
	net := simnet.New(simnet.Config{
		Fabric:           simnet.NewCrossbar(n, 0, 2*des.Microsecond),
		TxBandwidth:      200e6,
		RxBandwidth:      200e6,
		SendOverhead:     3 * des.Microsecond,
		RecvOverhead:     3 * des.Microsecond,
		MemCopyBandwidth: 1e9,
	})
	return mpi.WorldConfig{Net: net}
}

// quickOpts keeps virtual time short so the full 43-pattern, 3-method
// schedule stays cheap to simulate.
func quickOpts() Options {
	return Options{T: 3 * des.Second, MPart: 2 * mB, MaxRepsPerPattern: 64}
}

func TestRunFullProtocol(t *testing.T) {
	res, err := Run(testWorld(4), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 4 {
		t.Errorf("procs = %d", res.Procs)
	}
	if len(res.Methods) != NumMethods {
		t.Fatalf("%d methods", len(res.Methods))
	}
	for _, mr := range res.Methods {
		if len(mr.Types) != NumTypes {
			t.Fatalf("%v has %d types", mr.Method, len(mr.Types))
		}
		for _, tr := range mr.Types {
			if tr.Skipped {
				t.Errorf("%v/%v unexpectedly skipped", mr.Method, tr.Type)
				continue
			}
			if tr.Bytes <= 0 || tr.Seconds <= 0 || tr.BW <= 0 {
				t.Errorf("%v/%v: bytes=%d s=%.4f bw=%.0f", mr.Method, tr.Type, tr.Bytes, tr.Seconds, tr.BW)
			}
			wantPatterns := 8
			if tr.Type == Scatter || tr.Type == Segmented || tr.Type == SegmentedColl {
				wantPatterns = 9
			}
			if len(tr.Patterns) != wantPatterns {
				t.Errorf("%v/%v: %d patterns, want %d", mr.Method, tr.Type, len(tr.Patterns), wantPatterns)
			}
		}
		if mr.BW <= 0 {
			t.Errorf("%v BW = %v", mr.Method, mr.BW)
		}
	}
	if res.BeffIO <= 0 {
		t.Error("BeffIO missing")
	}
	if res.SegmentSize <= 0 || res.SegmentSize%mB != 0 {
		t.Errorf("segment size %d should be a positive multiple of 1 MB", res.SegmentSize)
	}
	if res.TotalBytes <= 0 {
		t.Error("no bytes moved")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.BeffIO != b.BeffIO || a.TotalBytes != b.TotalBytes {
		t.Errorf("nondeterministic: %v/%v vs %v/%v", a.BeffIO, a.TotalBytes, b.BeffIO, b.TotalBytes)
	}
}

func TestFilesDeletedByDefault(t *testing.T) {
	fs := testFS()
	if _, err := Run(testWorld(2), fs, quickOpts()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"beffio_type0", "beffio_type1", "beffio_type3", "beffio_type4", "beffio_type2.r0", "beffio_type2.r1"} {
		if fs.Exists(name) {
			t.Errorf("%s survived cleanup", name)
		}
	}
}

func TestKeepFilesOption(t *testing.T) {
	fs := testFS()
	opt := quickOpts()
	opt.KeepFiles = true
	if _, err := Run(testWorld(2), fs, opt); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("beffio_type0") {
		t.Error("KeepFiles should leave the scatter file")
	}
}

func TestSkipTypesExcludedFromAverage(t *testing.T) {
	opt := quickOpts()
	opt.SkipTypes = []PatternType{Segmented}
	res, err := Run(testWorld(2), testFS(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range res.Methods {
		if !mr.Types[Segmented].Skipped {
			t.Error("type 3 should be skipped")
		}
		if mr.Types[SegmentedColl].Skipped || mr.Types[SegmentedColl].BW <= 0 {
			t.Error("type 4 should still run (with its own segment size)")
		}
	}
	if res.BeffIO <= 0 {
		t.Error("average should still be computed")
	}
}

func TestWeightedAveraging(t *testing.T) {
	res, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the partition value from the protocol and compare.
	for _, mr := range res.Methods {
		var num, den float64
		for _, tr := range mr.Types {
			if tr.Skipped {
				continue
			}
			num += tr.BW * tr.Type.Weight()
			den += tr.Type.Weight()
		}
		want := num / den
		if diff := mr.BW - want; diff > 1 || diff < -1 {
			t.Errorf("%v BW %.0f != recomputed %.0f", mr.Method, mr.BW, want)
		}
	}
	want := 0.25*res.Methods[0].BW + 0.25*res.Methods[1].BW + 0.5*res.Methods[2].BW
	if diff := res.BeffIO - want; diff > 1 || diff < -1 {
		t.Errorf("BeffIO %.0f != weighted %.0f", res.BeffIO, want)
	}
}

func TestScatterBeatsNoncollectiveAtSmallChunks(t *testing.T) {
	// Fig. 4's headline: type 0 is best at small disk chunks. Compare
	// the 1 kB patterns of type 0 (pattern 5) and type 2 (pattern 21)
	// in the initial-write protocol.
	res, err := Run(testWorld(4), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	write := res.Methods[InitialWrite]
	var scatter1k, separate1k float64
	for _, pm := range write.Types[Scatter].Patterns {
		if pm.Pattern.Num == 5 {
			scatter1k = pm.BW
		}
	}
	for _, pm := range write.Types[Separate].Patterns {
		if pm.Pattern.Num == 21 {
			separate1k = pm.BW
		}
	}
	if scatter1k <= separate1k {
		t.Errorf("1kB chunks: scatter %.1f MB/s should beat separate-files %.1f MB/s",
			scatter1k/1e6, separate1k/1e6)
	}
}

func TestNonWellformedSlowerNoncollective(t *testing.T) {
	res, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	write := res.Methods[InitialWrite]
	var wf, nwf float64 // 32 kB vs 32 kB + 8 in the separated-files type
	for _, pm := range write.Types[Separate].Patterns {
		switch pm.Pattern.Num {
		case 20:
			wf = pm.BW
		case 22:
			nwf = pm.BW
		}
	}
	if nwf >= wf {
		t.Errorf("non-wellformed 32kB+8 (%.1f MB/s) should lose to 32kB (%.1f MB/s)", nwf/1e6, wf/1e6)
	}
}

func TestGeometricBatchingNotSlower(t *testing.T) {
	// §5.4: fewer termination synchronisations can only help the
	// measured bandwidths of synchronisation-bound patterns.
	base := quickOpts()
	geo := quickOpts()
	geo.GeometricBatching = true
	a, err := Run(testWorld(4), testFS(), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testWorld(4), testFS(), geo)
	if err != nil {
		t.Fatal(err)
	}
	if b.BeffIO < 0.8*a.BeffIO {
		t.Errorf("geometric batching should not hurt: %.1f vs %.1f MB/s", b.BeffIO/1e6, a.BeffIO/1e6)
	}
}

func TestSweepAndSystemValue(t *testing.T) {
	var results []*Result
	for _, n := range []int{2, 4} {
		res, err := Run(testWorld(n), testFS(), quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	best := SystemValue(results)
	if best == nil || (best != results[0] && best != results[1]) {
		t.Fatal("SystemValue should pick one of the partitions")
	}
	for _, r := range results {
		if r.BeffIO > best.BeffIO {
			t.Errorf("SystemValue %.1f MB/s is below partition %d's %.1f MB/s", best.BeffIO/1e6, r.Procs, r.BeffIO/1e6)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.T != 60*des.Second {
		t.Errorf("default T = %v", o.T)
	}
	if o.MPart != 2*mB {
		t.Errorf("default MPart = %d", o.MPart)
	}
	if o.MaxRepsPerPattern != 1<<20 {
		t.Errorf("default rep cap = %d", o.MaxRepsPerPattern)
	}
}

func TestAllowedTimeShares(t *testing.T) {
	st := &runState{opt: Options{T: 64 * 3 * des.Second}}
	p := Pattern{U: 4}
	// T/3 = 64 s, of which U/ΣU = 4/64 → 4 s.
	if got := st.allowedTime(p); got != 4 {
		t.Errorf("allowed time = %v s, want 4 (T/3 * 4/64)", got)
	}
}

func TestRandomAccessExtension(t *testing.T) {
	opt := quickOpts()
	opt.MeasureRandomAccess = true
	res, err := Run(testWorld(2), testFS(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RandomAccess) == 0 {
		t.Fatal("random-access extension produced no measurements")
	}
	for _, m := range res.RandomAccess {
		if m.ReadBW <= 0 || m.WriteBW <= 0 {
			t.Errorf("chunk %d: read %.1f write %.1f MB/s", m.Chunk, m.ReadBW/1e6, m.WriteBW/1e6)
		}
	}
	// Larger chunks must not be slower than the smallest (seek-bound).
	first, last := res.RandomAccess[0], res.RandomAccess[len(res.RandomAccess)-1]
	if last.Chunk > first.Chunk && last.WriteBW < first.WriteBW {
		t.Errorf("random 1MB writes (%.1f) should beat random 1kB writes (%.1f)",
			last.WriteBW/1e6, first.WriteBW/1e6)
	}
}

func TestRandomAccessOffByDefault(t *testing.T) {
	res, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomAccess != nil {
		t.Error("extension must be opt-in")
	}
}

func TestRandomAccessDoesNotChangeAverage(t *testing.T) {
	a, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.MeasureRandomAccess = true
	b, err := Run(testWorld(2), testFS(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.BeffIO != b.BeffIO {
		t.Errorf("extension changed b_eff_io: %v vs %v", a.BeffIO, b.BeffIO)
	}
}

func TestFig3ShapeContrast(t *testing.T) {
	// The Fig. 3 contrast as a pinned test: on a global-I/O-resource
	// machine (T3E-style: no per-client channel) aggregate b_eff_io is
	// flat in partition size, while on a client-limited machine
	// (GPFS-style) it scales with clients until the servers saturate.
	if testing.Short() {
		t.Skip("sweep run")
	}
	sweep := func(clientBW float64) []float64 {
		var out []float64
		for _, n := range []int{2, 8} {
			cfg := testFS().Config()
			cfg.ClientBandwidth = clientBW
			fs := simfs.MustNew(cfg)
			res, err := Run(testWorld(n), fs, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.BeffIO)
		}
		return out
	}
	global := sweep(0)
	limited := sweep(8e6) // 8 MB/s per client against 400 MB/s of servers
	globalRatio := global[1] / global[0]
	limitedRatio := limited[1] / limited[0]
	if globalRatio > 2.0 {
		t.Errorf("global-resource machine should be near-flat 2→8 procs: ratio %.2f", globalRatio)
	}
	if limitedRatio < 1.8 {
		t.Errorf("client-limited machine should scale with clients: ratio %.2f", limitedRatio)
	}
	if limitedRatio <= globalRatio {
		t.Errorf("shapes inverted: global %.2f vs limited %.2f", globalRatio, limitedRatio)
	}
}

func TestTypeWeightOverride(t *testing.T) {
	base, err := Run(testWorld(2), testFS(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.TypeWeights = []float64{1, 1, 1, 1, 1} // equal weights
	flat, err := Run(testWorld(2), testFS(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Same per-type bandwidths, different averages (unless the scatter
	// type exactly equals the mean of the others, which it does not on
	// this config).
	if base.BeffIO == flat.BeffIO {
		t.Error("weight override had no effect on the average")
	}
	// Recompute flat's average by hand.
	for _, mr := range flat.Methods {
		var sum float64
		for _, tr := range mr.Types {
			sum += tr.BW
		}
		want := sum / float64(NumTypes)
		if d := mr.BW - want; d > 1 || d < -1 {
			t.Errorf("%v: BW %.0f != equal-weight mean %.0f", mr.Method, mr.BW, want)
		}
	}
}
