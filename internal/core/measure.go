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
// loop iterations and timing loops: the Alltoallv count vectors.
// runBody makes one per rank. A batch's AlltoallvBytes reads the counts
// when it posts, so timedLoop fills them before its batch runs and
// zeroes them again after.
type exchScratch struct {
	send, recv []int64
}

// counts returns zeroed send/recv count vectors of length n.
func (s *exchScratch) counts(n int) (send, recv []int64) {
	if cap(s.send) < n {
		s.send = make([]int64, n)
		s.recv = make([]int64, n)
	}
	return s.send[:n], s.recv[:n]
}

// exchange adds one iteration of the pattern's communication for one
// process to the batch b: a message of L bytes to each ring neighbour
// and the two matching receives. Alltoallv moves the counts send and
// recv, which hold those messages (zeros outside the ring).
func exchange(b mpi.Batch, nb Neighbors, L int64, m Method, send, recv []int64) {
	if !nb.InRing {
		if m == MethodAlltoallv {
			// Alltoallv is collective: even idle processes participate.
			b.AlltoallvBytes(send, recv)
		}
		return
	}
	switch m {
	case MethodSendrecv:
		// "Afterwards it sends a message back to its right neighbor":
		// the two transfers are issued one after the other.
		b.SendrecvBytes(nb.Left, tagToLeft, L, nb.Right, tagToLeft)
		b.SendrecvBytes(nb.Right, tagToRight, L, nb.Left, tagToRight)
	case MethodAlltoallv:
		b.AlltoallvBytes(send, recv)
	case MethodNonblocking:
		b.IrecvBytes(nb.Right, tagToLeft)
		b.IrecvBytes(nb.Left, tagToRight)
		b.IsendBytes(nb.Left, tagToLeft, L)
		b.IsendBytes(nb.Right, tagToRight, L)
		b.Waitall()
	}
}

// timedLoop runs a barrier and then iters exchanges as one batch, and
// returns this process's elapsed time in seconds from the end of the
// barrier.
func timedLoop(c *mpi.Comm, nb Neighbors, L int64, m Method, iters int, s *exchScratch) float64 {
	send, recv := s.counts(c.Size())
	ring := m == MethodAlltoallv && nb.InRing
	if ring {
		send[nb.Left] += L
		send[nb.Right] += L
		recv[nb.Left] += L
		recv[nb.Right] += L
	}
	b := c.Batch()
	b.Barrier()
	b.Mark()
	for k := 0; k < iters; k++ {
		exchange(b, nb, L, m, send, recv)
	}
	t0 := b.Run()
	if ring {
		send[nb.Left], send[nb.Right] = 0, 0
		recv[nb.Left], recv[nb.Right] = 0, 0
	}
	return c.Wtime() - t0.Seconds()
}

// measureOnce runs the pattern looplength times with the given message
// size and method, and returns the maximum per-process time in seconds
// (the b_eff timing rule).
func measureOnce(c *mpi.Comm, p *Pattern, L int64, m Method, looplength int, s *exchScratch) float64 {
	el := timedLoop(c, p.NB[c.Rank()], L, m, looplength, s)
	return mpi.AllreduceValue(c, mpi.OpMax, el)
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
