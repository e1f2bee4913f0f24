package core

import (
	"fmt"

	"github.com/hpcbench/beff/internal/mpi"
)

// This file implements the additional patterns the paper lists for
// detailed communication analysis (not part of the b_eff average):
// a worst-case cycle, a best and a worst bisection, two- and
// three-dimensional Cartesian exchanges, and a simple ping-pong.

const analysisIters = 4

// measurePingPong measures the classic two-process asymptotic
// bandwidth at L_max between the first two ranks: the number vendors
// quote, for contrast with the parallel-communication b_eff values.
func measurePingPong(c *mpi.Comm, L int64) float64 {
	if c.Size() < 2 {
		return 0
	}
	const iters = 8
	c.Barrier()
	start := c.Wtime()
	for i := 0; i < iters; i++ {
		switch c.Rank() {
		case 0:
			c.SendBytes(1, 7, L)
			c.RecvBytes(1, 7)
		case 1:
			c.RecvBytes(0, 7)
			c.SendBytes(0, 7, L)
		}
	}
	el := c.Wtime() - start
	all := mpi.AllreduceValue(c, mpi.OpMax, el)
	if all <= 0 {
		return 0
	}
	// 2*iters messages of L bytes moved in sequence.
	return float64(2*iters) * float64(L) / all
}

// runAnalysis measures the additional patterns at L_max and returns
// the entries in a fixed order.
func runAnalysis(c *mpi.Comm, L int64, s *exchScratch) []AnalysisEntry {
	var out []AnalysisEntry
	out = append(out, measureWorstCycle(c, L, s))
	out = append(out, measureBisections(c, L, s)...)
	out = append(out, measureCartesian(c, L, 2)...)
	out = append(out, measureCartesian(c, L, 3)...)
	return out
}

// timedExchange runs iters nonblocking neighbour exchanges and returns
// total bandwidth over the slowest process's time. bytesPerProc is the
// payload each participating process sends per iteration.
func timedExchange(c *mpi.Comm, nb Neighbors, bytesPerProc int64, involved int, iters int, s *exchScratch) float64 {
	c.Barrier()
	start := c.Wtime()
	for i := 0; i < iters; i++ {
		exchange(c, nb, bytesPerProc/2, MethodNonblocking, s)
	}
	el := c.Wtime() - start
	all := mpi.AllreduceValue(c, mpi.OpMax, el)
	if all <= 0 {
		return 0
	}
	return float64(involved) * float64(bytesPerProc) * float64(iters) / all
}

// measureWorstCycle builds a single all-process ring whose neighbours
// are maximally distant in rank space (0, n/2, 1, n/2+1, ...): on a
// locality-preserving machine every edge crosses half the system.
func measureWorstCycle(c *mpi.Comm, L int64, s *exchScratch) AnalysisEntry {
	n := c.Size()
	order := make([]int, 0, n)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		order = append(order, i)
		if i+half < n {
			order = append(order, i+half)
		}
	}
	p := buildPattern("worst cycle", []int{n}, order, false)
	bw := 0.0
	if n >= 2 {
		bw = timedExchange(c, p.NB[c.Rank()], 2*L, n, analysisIters, s)
	}
	return AnalysisEntry{
		Name: "worst-case cycle", Bytes: L, BW: bw,
		PerProc: bw / float64(maxInt(n, 1)), Involved: n,
	}
}

// bisectionPairings returns the partner maps of measureBisections on
// n ranks (n >= 2): antipodal i↔i+n/2, rank mirror i↔n-1-i, and, when
// each half holds at least two ranks, a quarter swap. Every map is an
// involution, so each rank's partner pairs back with it; a rank with no
// partner gets mpi.ProcNull.
func bisectionPairings(n int) []func(r int) int {
	half := n / 2
	pairings := []func(r int) int{
		// Antipodal: every message travels half the rank line.
		func(r int) int {
			if r < half {
				return r + half
			}
			if r < 2*half {
				return r - half
			}
			return mpi.ProcNull
		},
		// Mirror: fold around the middle cut.
		func(r int) int {
			p := n - 1 - r
			if p == r {
				return mpi.ProcNull
			}
			return p
		},
	}
	if q := half / 2; q > 0 {
		// Quarter swap: the q ranks just below the middle cut trade
		// with the q just above it, and the q lowest with the q
		// highest (adjacent across the wraparound). Each swapped block
		// holds exactly q ranks, so rank q idles when half is odd, and
		// ranks half+q to n-q-1 do when n is odd.
		pairings = append(pairings, func(r int) int {
			switch {
			case r >= half-q && r < half:
				return r + q
			case r >= half && r < half+q:
				return r - q
			case r < q:
				return r + (n - q)
			case r >= n-q:
				return r - (n - q)
			}
			return mpi.ProcNull
		})
	}
	return pairings
}

// measureBisections pairs the two halves of the machine so that every
// message crosses a bisection, under the candidate pairings of
// bisectionPairings, whose locality differs. Which pairing is fast
// depends on the topology, so — as a benchmark should — we measure all
// and report the best and the worst.
func measureBisections(c *mpi.Comm, L int64, s *exchScratch) []AnalysisEntry {
	n := c.Size()
	half := n / 2
	if half < 1 {
		return []AnalysisEntry{
			{Name: "best bisection", Bytes: L},
			{Name: "worst bisection", Bytes: L},
		}
	}
	var best, worst AnalysisEntry
	for k, pairing := range bisectionPairings(n) {
		partner := pairing(c.Rank())
		nb := Neighbors{Left: partner, Right: partner, InRing: partner != mpi.ProcNull}
		// Idle ranks move no bytes: a pairing's bandwidth counts only
		// the ranks it pairs (fewer than 2*half when half is odd).
		involved := 0
		for r := 0; r < n; r++ {
			if pairing(r) != mpi.ProcNull {
				involved++
			}
		}
		bw := timedExchange(c, nb, 2*L, involved, analysisIters, s)
		e := AnalysisEntry{Bytes: L, BW: bw, PerProc: bw / float64(involved), Involved: involved}
		if k == 0 || bw > best.BW {
			best = e
		}
		if k == 0 || bw < worst.BW {
			worst = e
		}
	}
	best.Name, worst.Name = "best bisection", "worst bisection"
	return []AnalysisEntry{best, worst}
}

// measureCartesian measures the neighbour exchanges of a d-dimensional
// Cartesian partitioning: each direction separately and all directions
// together, as the paper's analysis patterns prescribe.
func measureCartesian(c *mpi.Comm, L int64, ndims int) []AnalysisEntry {
	dims := mpi.DimsCreate(c.Size(), ndims)
	periods := make([]bool, ndims)
	for i := range periods {
		periods[i] = true
	}
	cart := mpi.NewCart(c, dims, periods)
	vol := 1
	for _, d := range dims {
		vol *= d
	}
	var out []AnalysisEntry
	// Per-dimension exchanges.
	for dim := 0; dim < ndims; dim++ {
		bw := cartExchange(c, cart, L, []int{dim})
		out = append(out, AnalysisEntry{
			Name:     fmt.Sprintf("%dD cartesian %v dim %d", ndims, dims, dim),
			Bytes:    L,
			BW:       bw,
			PerProc:  bw / float64(vol),
			Involved: vol,
		})
	}
	// All directions together.
	alldims := make([]int, ndims)
	for i := range alldims {
		alldims[i] = i
	}
	bw := cartExchange(c, cart, L, alldims)
	out = append(out, AnalysisEntry{
		Name:     fmt.Sprintf("%dD cartesian %v all dims", ndims, dims),
		Bytes:    L * int64(ndims),
		BW:       bw,
		PerProc:  bw / float64(vol),
		Involved: vol,
	})
	return out
}

// cartExchange times nonblocking exchanges along the given dimensions
// of the Cartesian grid. Ranks outside the grid only take part in the
// timing reduction (on the parent communicator).
func cartExchange(c *mpi.Comm, cart *mpi.Cart, L int64, dims []int) float64 {
	c.Barrier()
	start := c.Wtime()
	msgs := 0
	for i := 0; i < analysisIters; i++ {
		if cart != nil {
			var reqs []*mpi.Request
			for _, dim := range dims {
				src, dst := cart.Shift(dim, 1)
				reqs = append(reqs,
					cart.IrecvBytes(src, 300+dim),
					cart.IrecvBytes(dst, 400+dim),
					cart.IsendBytes(dst, 300+dim, L),
					cart.IsendBytes(src, 400+dim, L),
				)
				msgs += 2
			}
			cart.Waitall(reqs)
		}
	}
	el := c.Wtime() - start
	all := mpi.AllreduceValue(c, mpi.OpMax, el)
	if all <= 0 {
		return 0
	}
	totalMsgs := mpi.AllreduceValue(c, mpi.OpSum, int64(msgs))
	return float64(totalMsgs) * float64(L) / all
}
