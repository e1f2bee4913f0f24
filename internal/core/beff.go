package core

import (
	"fmt"

	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/stats"
)

// Options configures a b_eff run.
type Options struct {
	// MemoryPerProc (bytes) determines L_max by the b_eff rule. Either
	// it or LmaxOverride must be set.
	MemoryPerProc int64

	// LmaxOverride sets L_max directly, bypassing the memory rule.
	LmaxOverride int64

	// Seed drives the random-polygon patterns. Zero means 1.
	Seed int64

	// MaxLooplength caps the adaptive repetition count. Zero means the
	// paper's 300. Simulated runs are deterministic, so small caps
	// (e.g. 4) give identical averages at a fraction of the event
	// count — the cmd tools and benches use that.
	MaxLooplength int

	// Reps is the number of repetitions per measurement, of which the
	// maximum counts. Zero means the paper's 3. The simulator is
	// noise-free, so 1 changes nothing but time.
	Reps int

	// SkipAnalysis omits the heavyweight additional analysis patterns
	// (worst cycle, bisections, Cartesian exchanges). The ping-pong,
	// being a Table-1 column and nearly free, is always measured — on
	// ranks 0 and 1 of the partition, so placement effects (round-robin
	// vs sequential SMP numbering) show up in it exactly as the paper's
	// Hitachi rows do.
	SkipAnalysis bool
}

func (o Options) withDefaults() (Options, error) {
	if o.LmaxOverride == 0 && o.MemoryPerProc == 0 {
		return o, fmt.Errorf("core: Options needs MemoryPerProc or LmaxOverride")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxLooplength == 0 {
		o.MaxLooplength = 300
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	return o, nil
}

// Lmax resolves the maximum message size for these options.
func (o Options) Lmax() int64 {
	if o.LmaxOverride > 0 {
		return o.LmaxOverride
	}
	return LmaxFor(o.MemoryPerProc)
}

// PatternResult is the measurement protocol of one pattern.
type PatternResult struct {
	Name      string
	Random    bool
	RingSizes []int
	TotalMsgs int

	// ByMethod[m][szIdx] is the bandwidth (bytes/s) for each method and
	// message size (max over repetitions).
	ByMethod [NumMethods][]float64

	// Best[szIdx] is the max over methods.
	Best []float64

	// SumAvg is mean over the 21 sizes of Best — the per-pattern value
	// entering the logarithmic averages.
	SumAvg float64
}

// AnalysisEntry is one additional (non-averaged) measurement.
type AnalysisEntry struct {
	Name     string
	Bytes    int64   // payload per process pair and iteration
	BW       float64 // total bandwidth, bytes/s
	PerProc  float64 // bandwidth per participating process
	Involved int     // number of communicating processes
}

// Result is the full b_eff protocol.
type Result struct {
	Procs   int
	Lmax    int64
	Sizes   []int64
	Ring    []PatternResult
	Random  []PatternResult
	Options Options

	// Beff is the effective bandwidth in bytes/s;
	// logavg(logavg(rings), logavg(randoms)).
	Beff float64

	// BeffAtLmax restricts the same reduction to the largest message.
	BeffAtLmax float64

	// RingAtLmax is the ring-patterns-only value at L_max (the last
	// column of Table 1).
	RingAtLmax float64

	PingPong float64 // asymptotic ping-pong bandwidth at L_max, bytes/s

	Analysis []AnalysisEntry

	// Elapsed is the total virtual time the benchmark run took, in
	// seconds — the paper budgets 3-5 minutes for b_eff.
	Elapsed float64
}

// BeffPerProc is Beff divided by the number of processes.
func (r *Result) BeffPerProc() float64 { return r.Beff / float64(r.Procs) }

// AtLmaxPerProc is BeffAtLmax per process.
func (r *Result) AtLmaxPerProc() float64 { return r.BeffAtLmax / float64(r.Procs) }

// RingAtLmaxPerProc is RingAtLmax per process.
func (r *Result) RingAtLmaxPerProc() float64 { return r.RingAtLmax / float64(r.Procs) }

// Run executes the b_eff benchmark on a machine: it creates the MPI
// world from the given configuration and drives the full measurement
// schedule. The returned Result is identical on every rank; rank 0's
// copy is handed back.
func Run(w mpi.WorldConfig, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	var res *Result
	err = mpi.Run(w, func(c *mpi.Comm) {
		r := runBody(c, opt)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runBody is the per-rank benchmark body. All ranks execute the same
// schedule and compute identical aggregates (everything reduces through
// collectives).
func runBody(c *mpi.Comm, opt Options) *Result {
	n := c.Size()
	lmax := opt.Lmax()
	sizes := MessageSizes(lmax)

	res := &Result{
		Procs:   n,
		Lmax:    lmax,
		Sizes:   sizes,
		Options: opt,
	}
	ring := RingPatterns(n)
	random := RandomPatterns(n, opt.Seed)

	var s exchScratch
	res.Ring = measurePatterns(c, ring, sizes, opt, &s)
	res.Random = measurePatterns(c, random, sizes, opt, &s)

	reduce(res)

	res.PingPong = measurePingPong(c, lmax)
	if !opt.SkipAnalysis {
		res.Analysis = runAnalysis(c, lmax, &s)
	}
	c.Barrier()
	res.Elapsed = c.Wtime()
	return res
}

func measurePatterns(c *mpi.Comm, pats []*Pattern, sizes []int64, opt Options, s *exchScratch) []PatternResult {
	out := make([]PatternResult, len(pats))
	for pi, p := range pats {
		pr := PatternResult{
			Name:      p.Name,
			Random:    p.Random,
			RingSizes: p.RingSizes,
			TotalMsgs: p.TotalMsgs,
			Best:      make([]float64, len(sizes)),
		}
		for m := 0; m < NumMethods; m++ {
			pr.ByMethod[m] = make([]float64, len(sizes))
		}
		for m := Method(0); m < Method(NumMethods); m++ {
			ll := opt.MaxLooplength
			for si, L := range sizes {
				best := 0.0
				var lastTime float64
				for rep := 0; rep < opt.Reps; rep++ {
					t := measureOnce(c, p, L, m, ll, s)
					lastTime = t
					if bw := bandwidth(L, p.TotalMsgs, ll, t); bw > best {
						best = bw
					}
				}
				pr.ByMethod[m][si] = best
				if best > pr.Best[si] {
					pr.Best[si] = best
				}
				ll = nextLooplength(ll, lastTime, opt.MaxLooplength)
			}
		}
		pr.SumAvg = stats.Mean(pr.Best...)
		out[pi] = pr
	}
	return out
}

// reduce applies the b_eff averaging formula to the measured protocol.
func reduce(res *Result) {
	ringAvgs := make([]float64, len(res.Ring))
	ringAtL := make([]float64, len(res.Ring))
	for i, pr := range res.Ring {
		ringAvgs[i] = pr.SumAvg
		ringAtL[i] = pr.Best[len(pr.Best)-1]
	}
	randAvgs := make([]float64, len(res.Random))
	randAtL := make([]float64, len(res.Random))
	for i, pr := range res.Random {
		randAvgs[i] = pr.SumAvg
		randAtL[i] = pr.Best[len(pr.Best)-1]
	}
	res.Beff = stats.LogAvg(stats.LogAvg(ringAvgs...), stats.LogAvg(randAvgs...))
	res.BeffAtLmax = stats.LogAvg(stats.LogAvg(ringAtL...), stats.LogAvg(randAtL...))
	res.RingAtLmax = stats.LogAvg(ringAtL...)
}
