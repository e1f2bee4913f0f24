package check

import (
	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/stats"
	"github.com/hpcbench/beff/internal/workload"
)

// Post-hoc result audits: recompute every reduction a benchmark result
// claims from its own raw protocol and report any disagreement. They
// are pure — no simulation required — so they apply equally to fresh
// results, cache hits, and golden-corpus files.

// VerifyBeff audits a b_eff result: pattern and size counts, bandwidth
// finiteness and sign, max-over-methods, mean-over-sizes, and the
// nested logarithmic averages of the headline numbers.
func (c *Checker) VerifyBeff(res *core.Result) {
	if res == nil {
		c.Reportf("beff/result", "nil result")
		return
	}
	if res.Procs < 1 {
		c.Reportf("beff/result", "nonpositive process count %d", res.Procs)
	}
	if res.Lmax < 1 {
		c.Reportf("beff/result", "nonpositive L_max %d", res.Lmax)
	}
	if len(res.Sizes) != core.NumMessageSizes {
		c.Reportf("beff/sizes", "%d message sizes, want %d", len(res.Sizes), core.NumMessageSizes)
	}
	for i, s := range res.Sizes {
		if s < 1 {
			c.Reportf("beff/sizes", "size[%d] = %d is nonpositive", i, s)
		}
		if i > 0 && s < res.Sizes[i-1] {
			c.Reportf("beff/sizes", "size[%d] = %d decreases from %d", i, s, res.Sizes[i-1])
		}
	}
	if n := len(res.Sizes); n > 0 && res.Sizes[n-1] != res.Lmax {
		c.Reportf("beff/sizes", "largest size %d differs from L_max %d", res.Sizes[n-1], res.Lmax)
	}
	if len(res.Ring) != core.NumRingPatterns || len(res.Random) != core.NumRingPatterns {
		c.Reportf("beff/patterns", "%d ring and %d random patterns, want %d each",
			len(res.Ring), len(res.Random), core.NumRingPatterns)
	}
	for _, fam := range []struct {
		name string
		prs  []core.PatternResult
	}{{"ring", res.Ring}, {"random", res.Random}} {
		for _, pr := range fam.prs {
			c.verifyBeffPattern(fam.name, pr, len(res.Sizes))
		}
	}

	// Redo reduce(): the per-pattern values roll up through fixed
	// logarithmic averages.
	ringAvgs := make([]float64, 0, len(res.Ring))
	ringAtL := make([]float64, 0, len(res.Ring))
	for _, pr := range res.Ring {
		ringAvgs = append(ringAvgs, pr.SumAvg)
		if len(pr.Best) > 0 {
			ringAtL = append(ringAtL, pr.Best[len(pr.Best)-1])
		}
	}
	randAvgs := make([]float64, 0, len(res.Random))
	randAtL := make([]float64, 0, len(res.Random))
	for _, pr := range res.Random {
		randAvgs = append(randAvgs, pr.SumAvg)
		if len(pr.Best) > 0 {
			randAtL = append(randAtL, pr.Best[len(pr.Best)-1])
		}
	}
	if want := stats.LogAvg(stats.LogAvg(ringAvgs...), stats.LogAvg(randAvgs...)); !almostEqual(res.Beff, want) {
		c.Reportf("beff/reduction", "b_eff = %v, but its protocol reduces to %v", res.Beff, want)
	}
	if want := stats.LogAvg(stats.LogAvg(ringAtL...), stats.LogAvg(randAtL...)); !almostEqual(res.BeffAtLmax, want) {
		c.Reportf("beff/reduction", "b_eff at L_max = %v, but its protocol reduces to %v", res.BeffAtLmax, want)
	}
	if want := stats.LogAvg(ringAtL...); !almostEqual(res.RingAtLmax, want) {
		c.Reportf("beff/reduction", "ring value at L_max = %v, but its protocol reduces to %v", res.RingAtLmax, want)
	}
	if !finite(res.PingPong) || res.PingPong < 0 {
		c.Reportf("beff/bandwidth-range", "ping-pong bandwidth %v", res.PingPong)
	}
	if !finite(res.Elapsed) || res.Elapsed < 0 {
		c.Reportf("beff/result", "negative or non-finite elapsed time %v", res.Elapsed)
	}
	for _, a := range res.Analysis {
		if !finite(a.BW) || a.BW < 0 || !finite(a.PerProc) || a.PerProc < 0 {
			c.Reportf("beff/bandwidth-range", "analysis %q: bandwidth %v (%v per proc)", a.Name, a.BW, a.PerProc)
		}
	}
}

func (c *Checker) verifyBeffPattern(fam string, pr core.PatternResult, nSizes int) {
	if len(pr.Best) != nSizes {
		c.Reportf("beff/patterns", "%s pattern %q has %d best values for %d sizes", fam, pr.Name, len(pr.Best), nSizes)
		return
	}
	for m := 0; m < core.NumMethods; m++ {
		if len(pr.ByMethod[m]) != nSizes {
			c.Reportf("beff/patterns", "%s pattern %q method %d has %d values for %d sizes",
				fam, pr.Name, m, len(pr.ByMethod[m]), nSizes)
			return
		}
		for i, bw := range pr.ByMethod[m] {
			if !finite(bw) || bw < 0 {
				c.Reportf("beff/bandwidth-range", "%s pattern %q method %d size[%d]: bandwidth %v",
					fam, pr.Name, m, i, bw)
			}
		}
	}
	for i := range pr.Best {
		best := pr.ByMethod[0][i]
		for m := 1; m < core.NumMethods; m++ {
			if pr.ByMethod[m][i] > best {
				best = pr.ByMethod[m][i]
			}
		}
		if !almostEqual(pr.Best[i], best) {
			c.Reportf("beff/reduction", "%s pattern %q size[%d]: best %v is not the max over methods %v",
				fam, pr.Name, i, pr.Best[i], best)
		}
	}
	if want := stats.Mean(pr.Best...); !almostEqual(pr.SumAvg, want) {
		c.Reportf("beff/reduction", "%s pattern %q: size average %v, recomputed %v", fam, pr.Name, pr.SumAvg, want)
	}
}

// VerifyPatternTable audits a b_eff_io pattern table against the §3.2
// scheduling quota: 43 rows, exactly 36 timed patterns, ΣU = 64, and
// coherent chunk geometry on every row.
func (c *Checker) VerifyPatternTable(pats []beffio.Pattern) {
	const tableRows = 43
	if len(pats) != tableRows {
		c.Reportf("beffio/pattern-table", "%d rows, want %d", len(pats), tableRows)
	}
	sumU, timed := 0, 0
	for i, p := range pats {
		if p.Num != i {
			c.Reportf("beffio/pattern-table", "row %d is numbered %d", i, p.Num)
		}
		if p.U < 0 {
			c.Reportf("beffio/pattern-table", "pattern %d has negative time share U = %d", p.Num, p.U)
		}
		sumU += p.U
		if p.U > 0 {
			timed++
		}
		if p.DiskChunk == workload.FillUp {
			if p.MemChunk != workload.FillUp || p.U != 0 {
				c.Reportf("beffio/pattern-table", "fill-up pattern %d must have L = fill-up and U = 0 (L = %d, U = %d)",
					p.Num, p.MemChunk, p.U)
			}
			continue
		}
		if p.DiskChunk < 1 || p.MemChunk < p.DiskChunk {
			c.Reportf("beffio/pattern-table", "pattern %d has incoherent chunks l = %d, L = %d",
				p.Num, p.DiskChunk, p.MemChunk)
		} else if p.MemChunk%p.DiskChunk != 0 {
			c.Reportf("beffio/pattern-table", "pattern %d: memory chunk %d is not a multiple of disk chunk %d",
				p.Num, p.MemChunk, p.DiskChunk)
		}
	}
	if sumU != beffio.SumU {
		c.Reportf("beffio/time-quota", "ΣU = %d, want %d", sumU, beffio.SumU)
	}
	if timed != beffio.TimedPatternCount {
		c.Reportf("beffio/time-quota", "%d timed patterns, want %d", timed, beffio.TimedPatternCount)
	}
}

// VerifyBeffIO audits a b_eff_io result: the scheduling quota of its
// pattern table, byte accounting per pattern type, the weighted
// pattern-type and access-method means, and bandwidth sanity
// throughout.
func (c *Checker) VerifyBeffIO(res *beffio.Result) {
	if res == nil {
		c.Reportf("beffio/result", "nil result")
		return
	}
	if res.Procs < 1 {
		c.Reportf("beffio/result", "nonpositive process count %d", res.Procs)
	}
	if res.T <= 0 {
		c.Reportf("beffio/result", "nonpositive scheduled time %v", res.T)
	}
	const mB = int64(1) << 20
	if res.MPart < 2*mB {
		c.Reportf("beffio/result", "M_PART = %d below the 2 MB floor", res.MPart)
	}
	c.VerifyPatternTable(beffio.Table2(res.MPart))

	if len(res.Methods) != beffio.NumMethods {
		c.Reportf("beffio/result", "%d access methods, want %d", len(res.Methods), beffio.NumMethods)
		return
	}
	var mVals, mWs []float64
	var total int64
	for mi, mr := range res.Methods {
		if mr.Method != beffio.AccessMethod(mi) {
			c.Reportf("beffio/result", "method %d is %v", mi, mr.Method)
		}
		if len(mr.Types) != beffio.NumTypes {
			c.Reportf("beffio/result", "%v has %d pattern types, want %d", mr.Method, len(mr.Types), beffio.NumTypes)
			continue
		}
		var tVals, tWs []float64
		for ti, tr := range mr.Types {
			if tr.Type != beffio.PatternType(ti) {
				c.Reportf("beffio/result", "%v type %d is %v", mr.Method, ti, tr.Type)
			}
			if tr.Skipped {
				continue
			}
			var bytes int64
			for _, pm := range tr.Patterns {
				if pm.Bytes < 0 || pm.Reps < 0 || !finite(pm.Seconds) || pm.Seconds < 0 {
					c.Reportf("beffio/bandwidth-range", "%v pattern %d: %d B, %d reps, %v s",
						mr.Method, pm.Pattern.Num, pm.Bytes, pm.Reps, pm.Seconds)
				}
				if pm.Seconds > 0 {
					if want := float64(pm.Bytes) / pm.Seconds; !almostEqual(pm.BW, want) {
						c.Reportf("beffio/reduction", "%v pattern %d: bandwidth %v, but %d B / %v s = %v",
							mr.Method, pm.Pattern.Num, pm.BW, pm.Bytes, pm.Seconds, want)
					}
				}
				bytes += pm.Bytes
			}
			if bytes != tr.Bytes {
				c.Reportf("beffio/byte-accounting", "%v %v: patterns moved %d B, type reports %d B",
					mr.Method, tr.Type, bytes, tr.Bytes)
			}
			if !finite(tr.BW) || tr.BW < 0 {
				c.Reportf("beffio/bandwidth-range", "%v %v: bandwidth %v", mr.Method, tr.Type, tr.BW)
			}
			if tr.Seconds > 0 {
				if want := float64(tr.Bytes) / tr.Seconds; !almostEqual(tr.BW, want) {
					c.Reportf("beffio/reduction", "%v %v: bandwidth %v, but %d B / %v s = %v",
						mr.Method, tr.Type, tr.BW, tr.Bytes, tr.Seconds, want)
				}
			}
			tVals = append(tVals, tr.BW)
			tWs = append(tWs, typeWeight(res.Options, tr.Type))
			total += tr.Bytes
		}
		if want := stats.WeightedMean(tVals, tWs); !almostEqual(mr.BW, want) {
			c.Reportf("beffio/reduction", "%v: bandwidth %v, weighted type mean is %v", mr.Method, mr.BW, want)
		}
		mVals = append(mVals, mr.BW)
		mWs = append(mWs, mr.Method.Weight())
	}
	if total != res.TotalBytes {
		c.Reportf("beffio/byte-accounting", "pattern types moved %d B, result reports %d B", total, res.TotalBytes)
	}
	if want := stats.WeightedMean(mVals, mWs); !almostEqual(res.BeffIO, want) {
		c.Reportf("beffio/reduction", "b_eff_io = %v, weighted method mean is %v", res.BeffIO, want)
	}
	if !finite(res.BeffIO) || res.BeffIO < 0 {
		c.Reportf("beffio/bandwidth-range", "b_eff_io = %v", res.BeffIO)
	}
	if res.SegmentSize != 0 && (res.SegmentSize < 0 || res.SegmentSize%mB != 0) {
		c.Reportf("beffio/segment-size", "segment size %d is not a positive multiple of 1 MB", res.SegmentSize)
	}
}

// typeWeight mirrors the run's weighting rule: the TypeWeights override
// when set, the scatter-counts-double default otherwise.
func typeWeight(opt beffio.Options, t beffio.PatternType) float64 {
	if len(opt.TypeWeights) == beffio.NumTypes {
		return opt.TypeWeights[t]
	}
	return t.Weight()
}

// VerifyRobustness audits a repetition summary: the spread statistics
// must be those of the recorded values, and the reported value must be
// the paper-prescribed maximum over repetitions.
func (c *Checker) VerifyRobustness(rob runner.Robustness) {
	for i, v := range rob.Values {
		if !finite(v) || v < 0 {
			c.Reportf("robust/values", "repetition %d measured %v", i, v)
		}
	}
	s := stats.Describe(rob.Values...)
	if rob.Summary.N != s.N {
		c.Reportf("robust/summary", "N = %d for %d values", rob.Summary.N, s.N)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"min", rob.Summary.Min, s.Min},
		{"median", rob.Summary.Median, s.Median},
		{"mean", rob.Summary.Mean, s.Mean},
		{"max", rob.Summary.Max, s.Max},
		{"stddev", rob.Summary.StdDev, s.StdDev},
		{"cv", rob.Summary.CV, s.CV},
	} {
		if !almostEqual(f.got, f.want) {
			c.Reportf("robust/summary", "%s = %v, recomputed %v", f.name, f.got, f.want)
		}
	}
	if !almostEqual(rob.MaxOverReps, rob.Summary.Max) {
		c.Reportf("robust/summary", "reported max-over-reps %v differs from summary max %v",
			rob.MaxOverReps, rob.Summary.Max)
	}
	if rob.Summary.Min > rob.Summary.Median || rob.Summary.Median > rob.Summary.Max {
		c.Reportf("robust/summary", "ordering violated: min %v, median %v, max %v",
			rob.Summary.Min, rob.Summary.Median, rob.Summary.Max)
	}
}
