package mpi

import (
	"encoding/binary"
	"math"
)

// Internal tag blocks for collective algorithms; each collective gets a
// 256-tag block so rounds can be tagged individually.
const (
	tagBarrier   = internalTagBase + 0x100
	tagBcast     = internalTagBase + 0x200
	tagReduce    = internalTagBase + 0x300
	tagGather    = internalTagBase + 0x400
	tagAlltoallv = internalTagBase + 0x600
	tagScan      = internalTagBase + 0x800
)

// Op is a reduction operator.
type Op int

// Reduction operators for Reduce/Allreduce.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (op Op) combineFloat64(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic("mpi: unknown op")
}

func (op Op) combineInt64(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown op")
}

// ---------------------------------------------------------------------
// Barrier

// Barrier blocks until every rank of the communicator has entered it,
// using the dissemination algorithm: ceil(log2(n)) rounds of
// zero-payload sendrecvs.
func (c *Comm) Barrier() {
	size := c.Size()
	if size == 1 {
		return
	}
	round := 0
	for k := 1; k < size; k <<= 1 {
		dst := (c.rank + k) % size
		src := (c.rank - k + size) % size
		c.SendrecvBytes(dst, tagBarrier+round, 0, src, tagBarrier+round)
		round++
	}
}

// ---------------------------------------------------------------------
// Broadcast

// Bcast broadcasts data from root to every rank over a binomial tree.
// All ranks must pass a buffer of the same length; non-roots receive
// into it.
func (c *Comm) Bcast(root int, data []byte) {
	c.bcast(root, int64(len(data)), data)
}

func (c *Comm) bcast(root int, size int64, data []byte) {
	n := c.Size()
	if n == 1 {
		return
	}
	if root < 0 || root >= n {
		c.Proc().Fail("mpi: Bcast root %d out of range", root)
	}
	relrank := (c.rank - root + n) % n
	// Receive phase: wait for the message from the parent.
	mask := 1
	for mask < n {
		if relrank&mask != 0 {
			src := (c.rank - mask + n) % n
			if data != nil {
				c.Recv(src, tagBcast, data)
			} else {
				c.RecvBytes(src, tagBcast)
			}
			break
		}
		mask <<= 1
	}
	// Send phase: forward to children.
	mask >>= 1
	for mask > 0 {
		if relrank+mask < n {
			dst := (c.rank + mask) % n
			if data != nil {
				c.Send(dst, tagBcast, data)
			} else {
				c.SendBytes(dst, tagBcast, size)
			}
		}
		mask >>= 1
	}
}

// BcastInt64 broadcasts a slice of int64 from root; all ranks pass a
// slice of the same length.
func (c *Comm) BcastInt64(root int, xs []int64) {
	buf := make([]byte, 8*len(xs))
	if c.rank == root {
		encodeInt64s(buf, xs)
	}
	c.Bcast(root, buf)
	if c.rank != root {
		decodeInt64s(xs, buf)
	}
}

// BcastFloat64 broadcasts a slice of float64 from root.
func (c *Comm) BcastFloat64(root int, xs []float64) {
	buf := make([]byte, 8*len(xs))
	if c.rank == root {
		encodeFloat64s(buf, xs)
	}
	c.Bcast(root, buf)
	if c.rank != root {
		decodeFloat64s(xs, buf)
	}
}

// ---------------------------------------------------------------------
// Reduce / Allreduce

// ReduceFloat64 reduces xs element-wise onto root with op over a
// binomial tree and returns the result at root (nil elsewhere).
func (c *Comm) ReduceFloat64(root int, op Op, xs []float64) []float64 {
	n := c.Size()
	acc := append([]float64(nil), xs...)
	if n > 1 {
		relrank := (c.rank - root + n) % n
		buf := make([]byte, 8*len(xs))
		tmp := make([]float64, len(xs))
		mask := 1
		for mask < n {
			if relrank&mask == 0 {
				srcRel := relrank | mask
				if srcRel < n {
					src := (srcRel + root) % n
					c.Recv(src, tagReduce, buf)
					decodeFloat64s(tmp, buf)
					for i := range acc {
						acc[i] = op.combineFloat64(acc[i], tmp[i])
					}
				}
			} else {
				dst := ((relrank &^ mask) + root) % n
				encodeFloat64s(buf, acc)
				c.Send(dst, tagReduce, buf)
				break
			}
			mask <<= 1
		}
	}
	if c.rank == root {
		return acc
	}
	return nil
}

// AllreduceFloat64 reduces xs element-wise with op and returns the
// result at every rank (Reduce to 0 followed by Bcast).
func (c *Comm) AllreduceFloat64(op Op, xs []float64) []float64 {
	acc := c.ReduceFloat64(0, op, xs)
	if c.rank != 0 {
		acc = make([]float64, len(xs))
	}
	c.BcastFloat64(0, acc)
	return acc
}

// AllreduceInt64 reduces int64s with op at every rank.
func (c *Comm) AllreduceInt64(op Op, xs []int64) []int64 {
	acc := c.reduceInt64(0, op, xs)
	if c.rank != 0 {
		acc = make([]int64, len(xs))
	}
	c.BcastInt64(0, acc)
	return acc
}

func (c *Comm) reduceInt64(root int, op Op, xs []int64) []int64 {
	n := c.Size()
	acc := append([]int64(nil), xs...)
	if n > 1 {
		relrank := (c.rank - root + n) % n
		buf := make([]byte, 8*len(xs))
		tmp := make([]int64, len(xs))
		mask := 1
		for mask < n {
			if relrank&mask == 0 {
				srcRel := relrank | mask
				if srcRel < n {
					src := (srcRel + root) % n
					c.Recv(src, tagReduce, buf)
					decodeInt64s(tmp, buf)
					for i := range acc {
						acc[i] = op.combineInt64(acc[i], tmp[i])
					}
				}
			} else {
				dst := ((relrank &^ mask) + root) % n
				encodeInt64s(buf, acc)
				c.Send(dst, tagReduce, buf)
				break
			}
			mask <<= 1
		}
	}
	if c.rank == root {
		return acc
	}
	return nil
}

// ---------------------------------------------------------------------
// Gather / Allgather

// GatherInt64 gathers equal-length slices to root, concatenated in rank
// order; returns nil on non-roots. Linear algorithm.
func (c *Comm) GatherInt64(root int, mine []int64) []int64 {
	n := c.Size()
	if c.rank != root {
		buf := make([]byte, 8*len(mine))
		encodeInt64s(buf, mine)
		c.Send(root, tagGather, buf)
		return nil
	}
	out := make([]int64, n*len(mine))
	copy(out[root*len(mine):], mine)
	buf := make([]byte, 8*len(mine))
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		c.Recv(r, tagGather, buf)
		decodeInt64s(out[r*len(mine):(r+1)*len(mine)], buf)
	}
	return out
}

// ---------------------------------------------------------------------
// Scan

// ScanInt64 computes the inclusive prefix reduction: rank r receives
// op(xs_0, ..., xs_r), element-wise, like MPI_Scan. Implemented with
// the standard recursive-doubling partial-sums algorithm.
func (c *Comm) ScanInt64(op Op, xs []int64) []int64 {
	n := c.Size()
	// result carries the inclusive prefix; partial the values this rank
	// forwards (the reduction of its contiguous block seen so far).
	result := append([]int64(nil), xs...)
	partial := append([]int64(nil), xs...)
	buf := make([]byte, 8*len(xs))
	tmp := make([]int64, len(xs))
	round := 0
	for mask := 1; mask < n; mask <<= 1 {
		dst := c.rank + mask
		src := c.rank - mask
		var reqs []*Request
		if dst < n {
			encodeInt64s(buf, partial)
			reqs = append(reqs, c.Isend(dst, tagScan+round, buf))
		}
		rbuf := make([]byte, 8*len(xs))
		var rr *Request
		if src >= 0 {
			rr = c.Irecv(src, tagScan+round, rbuf)
		}
		if rr != nil {
			c.Wait(rr)
			decodeInt64s(tmp, rbuf)
			for i := range result {
				result[i] = op.combineInt64(tmp[i], result[i])
				partial[i] = op.combineInt64(tmp[i], partial[i])
			}
		}
		c.Waitall(reqs)
		round++
	}
	return result
}

// ExscanInt64 is the exclusive prefix reduction: rank r receives
// op(xs_0, ..., xs_{r-1}); rank 0 receives the identity for OpSum (0)
// and ok-for-prefix defaults for OpMin/OpMax (the caller usually
// ignores rank 0's value, as MPI leaves it undefined).
func (c *Comm) ExscanInt64(op Op, xs []int64) []int64 {
	incl := c.ScanInt64(op, xs)
	out := make([]int64, len(xs))
	switch op {
	case OpSum:
		for i := range out {
			out[i] = incl[i] - xs[i]
		}
	default:
		// For min/max the exclusive value cannot be recovered from the
		// inclusive one; shift explicitly.
		buf := make([]byte, 8*len(xs))
		if c.rank+1 < c.Size() {
			encodeInt64s(buf, incl)
			c.Send(c.rank+1, tagScan+0xF0, buf)
		}
		if c.rank > 0 {
			c.Recv(c.rank-1, tagScan+0xF0, buf)
			decodeInt64s(out, buf)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Alltoallv

// AlltoallvBytes performs a timing-only personalised all-to-all: rank i
// sends sendCounts[j] bytes to rank j and receives recvCounts[j] bytes
// from rank j. Pairs where both directions are empty are skipped, the
// optimisation real MPI implementations apply and the one that makes
// MPI_Alltoallv a sensible method for b_eff's sparse ring patterns.
// Pairwise-exchange algorithm: n-1 phases, phase k pairing rank r with
// r+k (send) and r-k (receive).
func (c *Comm) AlltoallvBytes(sendCounts, recvCounts []int64) {
	n := c.Size()
	if len(sendCounts) != n || len(recvCounts) != n {
		c.Proc().Fail("mpi: Alltoallv counts must have length %d", n)
	}
	for step := 1; step < n; step++ {
		dst := (c.rank + step) % n
		src := (c.rank - step + n) % n
		sn := sendCounts[dst]
		rn := recvCounts[src]
		switch {
		case sn > 0 && rn > 0:
			c.SendrecvBytes(dst, tagAlltoallv+step, sn, src, tagAlltoallv+step)
		case sn > 0:
			c.SendBytes(dst, tagAlltoallv+step, sn)
		case rn > 0:
			c.RecvBytes(src, tagAlltoallv+step)
		}
	}
	// Self block (sendCounts[rank]) is a local copy.
	if sendCounts[c.rank] > 0 {
		c.Proc().Sleep(c.world.net.CopyTime(sendCounts[c.rank]))
	}
}

// ---------------------------------------------------------------------
// Encoding helpers

func encodeInt64s(buf []byte, xs []int64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
}

func decodeInt64s(xs []int64, buf []byte) {
	for i := range xs {
		xs[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

func encodeFloat64s(buf []byte, xs []float64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
}

func decodeFloat64s(xs []float64, buf []byte) {
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}
