package core

import (
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
)

// Method is one of the three ways b_eff programs each pattern; the
// benchmark takes the maximum over them so the result does not depend
// on which MPI path a vendor optimised.
type Method int

const (
	// MethodSendrecv issues two blocking MPI_Sendrecv per iteration:
	// first towards the left neighbour, then towards the right.
	MethodSendrecv Method = iota
	// MethodAlltoallv expresses the ring exchange as one sparse
	// MPI_Alltoallv call.
	MethodAlltoallv
	// MethodNonblocking posts both receives and both sends and waits
	// on all four.
	MethodNonblocking
	numMethods
)

// NumMethods is the number of communication methods b_eff compares.
const NumMethods = int(numMethods)

func (m Method) String() string {
	switch m {
	case MethodSendrecv:
		return "Sendrecv"
	case MethodAlltoallv:
		return "Alltoallv"
	case MethodNonblocking:
		return "nonblocking"
	}
	return "?"
}

const (
	tagToLeft  = 101
	tagToRight = 102
)

// exchScratch is the per-rank scratch the exchange methods reuse across
// loop iterations: Alltoallv count vectors and the nonblocking request
// slice. AlltoallvBytes reads the counts synchronously and does not
// retain them, and Waitall recycles the requests, so reuse is safe.
type exchScratch struct {
	send, recv []int64
	reqs       [4]*mpi.Request
}

// counts returns zeroed send/recv count vectors of length n.
func (s *exchScratch) counts(n int) (send, recv []int64) {
	if cap(s.send) < n {
		s.send = make([]int64, n)
		s.recv = make([]int64, n)
	}
	return s.send[:n], s.recv[:n]
}

// exchange performs one iteration of the pattern's communication for
// one process: a message of L bytes to each ring neighbour and the two
// matching receives.
func exchange(c *mpi.Comm, nb Neighbors, L int64, m Method, s *exchScratch) {
	if !nb.InRing {
		if m == MethodAlltoallv {
			// Alltoallv is collective: even idle processes participate.
			zero, _ := s.counts(c.Size())
			c.AlltoallvBytes(zero, zero)
		}
		return
	}
	switch m {
	case MethodSendrecv:
		// "Afterwards it sends a message back to its right neighbor":
		// the two transfers are issued one after the other.
		c.SendrecvBytes(nb.Left, tagToLeft, L, nb.Right, tagToLeft)
		c.SendrecvBytes(nb.Right, tagToRight, L, nb.Left, tagToRight)
	case MethodAlltoallv:
		send, recv := s.counts(c.Size())
		send[nb.Left] += L
		send[nb.Right] += L
		recv[nb.Left] += L
		recv[nb.Right] += L
		c.AlltoallvBytes(send, recv)
		send[nb.Left], send[nb.Right] = 0, 0
		recv[nb.Left], recv[nb.Right] = 0, 0
	case MethodNonblocking:
		s.reqs = [4]*mpi.Request{
			c.IrecvBytes(nb.Right, tagToLeft),
			c.IrecvBytes(nb.Left, tagToRight),
			c.IsendBytes(nb.Left, tagToLeft, L),
			c.IsendBytes(nb.Right, tagToRight, L),
		}
		c.Waitall(s.reqs[:])
	}
}

// measureOnce runs the pattern looplength times with the given message
// size and method, and returns the maximum per-process time in seconds
// (the b_eff timing rule).
func measureOnce(c *mpi.Comm, p *Pattern, L int64, m Method, looplength int) float64 {
	c.Barrier()
	t0 := c.Wtime()
	nb := p.NB[c.Rank()]
	var s exchScratch
	for k := 0; k < looplength; k++ {
		exchange(c, nb, L, m, &s)
	}
	el := c.Wtime() - t0
	return c.AllreduceFloat64(mpi.OpMax, []float64{el})[0]
}

// loopTarget is the midpoint of the paper's 2.5–5 ms window for one
// timing loop.
const loopTarget = 3750 * des.Microsecond

// nextLooplength adapts the repetition count so the next loop lands in
// the timing window, clamped to [1, maxLL].
func nextLooplength(cur int, measured float64, maxLL int) int {
	if measured <= 0 {
		return maxLL
	}
	perIter := measured / float64(cur)
	// Clamp in float space: a tiny perIter makes the quotient +Inf or
	// larger than any int, and float→int conversion of such values is
	// implementation-defined. NaN (cur or measured poisoned upstream)
	// fails both comparisons and falls through to maxLL.
	wantF := loopTarget.Seconds() / perIter
	if wantF < 1 {
		return 1
	}
	if wantF < float64(maxLL) {
		return int(wantF)
	}
	return maxLL
}

// bandwidth applies the b_eff bandwidth formula:
// b = L * totalMessages * looplength / maxTime.
func bandwidth(L int64, totalMsgs, looplength int, maxTime float64) float64 {
	if maxTime <= 0 {
		return 0
	}
	return float64(L) * float64(totalMsgs) * float64(looplength) / maxTime
}
