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

// combine applies op to two 8-byte words, which hold float64s when
// float is set and int64s otherwise.
func (op Op) combine(float bool, a, b uint64) uint64 {
	if float {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch op {
		case OpSum:
			return math.Float64bits(x + y)
		case OpMax:
			return math.Float64bits(math.Max(x, y))
		case OpMin:
			return math.Float64bits(math.Min(x, y))
		}
	} else {
		x, y := int64(a), int64(b)
		switch op {
		case OpSum:
			return uint64(x + y)
		case OpMax:
			return uint64(max(x, y))
		case OpMin:
			return uint64(min(x, y))
		}
	}
	panic("mpi: unknown op")
}

// combine folds a folding round's received words (tmp) into the
// payload: data[i] = op(data[i], tmp[i]).
func (w *waiter) combine() {
	for i := 0; i+8 <= len(w.data); i += 8 {
		a := binary.LittleEndian.Uint64(w.data[i:])
		b := binary.LittleEndian.Uint64(w.tmp[i:])
		binary.LittleEndian.PutUint64(w.data[i:], w.op.combine(w.float, a, b))
	}
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
	w := c.begin()
	for k, r := 1, 0; k < size; k, r = k<<1, r+1 {
		w.rounds = append(w.rounds, round{
			src: (c.rank - k + size) % size, dst: (c.rank + k) % size, tag: tagBarrier + r,
		})
	}
	w.await()
}

// ---------------------------------------------------------------------
// Broadcast

// Bcast broadcasts data from root to every rank over a binomial tree.
// All ranks must pass a buffer of the same length; non-roots receive
// into it.
func (c *Comm) Bcast(root int, data []byte) {
	w := c.begin()
	w.data = data
	w.bcastRounds(root, int64(len(data)))
	w.await()
}

// bcastRounds appends a binomial-tree broadcast from root: the receive
// from the parent, then the sends to the children. size is what a
// timing-only broadcast sends.
func (w *waiter) bcastRounds(root int, size int64) {
	c := w.comm
	n := c.Size()
	if n == 1 {
		return
	}
	if root < 0 || root >= n {
		c.Proc().Fail("mpi: Bcast root %d out of range", root)
	}
	relrank := (c.rank - root + n) % n
	mask := 1
	for ; mask < n; mask <<= 1 {
		if relrank&mask != 0 {
			w.rounds = append(w.rounds, round{src: (c.rank - mask + n) % n, dst: noPeer, tag: tagBcast})
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if relrank+mask < n {
			w.rounds = append(w.rounds, round{src: noPeer, dst: (c.rank + mask) % n, tag: tagBcast, size: size})
		}
	}
}

// BcastInt64 broadcasts a slice of int64 from root; all ranks pass a
// slice of the same length.
func (c *Comm) BcastInt64(root int, xs []int64) {
	w := c.begin()
	w.load(xs, OpSum)
	w.bcastRounds(root, 0)
	w.await()
	w.store(xs)
}

// ---------------------------------------------------------------------
// Reduce / Allreduce

// Scalar is an element type of the typed reductions.
type Scalar interface{ int64 | float64 }

// Reduce reduces xs element-wise onto root with op over a binomial
// tree. At root xs is overwritten with the result; elsewhere it is left
// as it was.
func Reduce[T Scalar](c *Comm, root int, op Op, xs []T) {
	w := c.begin()
	w.load(xs, op)
	w.reduceRounds(root)
	w.await()
	if c.rank == root {
		w.store(xs)
	}
}

// Allreduce reduces xs element-wise with op and overwrites xs with the
// result at every rank (Reduce to rank 0 followed by Bcast). It
// allocates nothing once the rank's scratch has grown to len(xs).
func Allreduce[T Scalar](c *Comm, op Op, xs []T) {
	w := c.begin()
	w.load(xs, op)
	w.reduceRounds(0)
	w.bcastRounds(0, 0)
	w.await()
	w.store(xs)
}

// AllreduceValue is Allreduce of one element: it returns op over every
// rank's x.
func AllreduceValue[T Scalar](c *Comm, op Op, x T) T {
	xs := []T{x}
	Allreduce(c, op, xs)
	return xs[0]
}

// reduceRounds appends a binomial-tree reduction onto root: a folding
// receive from each child, then the send of the partial result to the
// parent.
func (w *waiter) reduceRounds(root int) {
	c := w.comm
	n := c.Size()
	relrank := (c.rank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if relrank&mask != 0 {
			w.rounds = append(w.rounds, round{src: noPeer, dst: ((relrank &^ mask) + root) % n, tag: tagReduce})
			return
		}
		if srcRel := relrank | mask; srcRel < n {
			w.rounds = append(w.rounds, round{src: (srcRel + root) % n, dst: noPeer, tag: tagReduce, fold: true})
		}
	}
}

// grow makes the rank's scratch hold k words: acc and tmp 8k bytes,
// ints 2k int64s.
func (w *waiter) grow(k int) {
	if cap(w.acc) < 8*k {
		w.acc, w.tmp = make([]byte, 8*k), make([]byte, 8*k)
	}
	if cap(w.ints) < 2*k {
		w.ints = make([]int64, 2*k)
	}
}

// load makes xs, encoded into the rank's scratch, the payload of a
// scalar collective reducing with op.
func (w *waiter) load(xs any, op Op) {
	switch v := xs.(type) {
	case []float64:
		w.grow(len(v))
		w.data, w.float = w.acc[:8*len(v)], true
		encodeFloat64s(w.data, v)
	case []int64:
		w.grow(len(v))
		w.data, w.float = w.acc[:8*len(v)], false
		encodeInt64s(w.data, v)
	}
	w.tmp, w.op = w.tmp[:len(w.data)], op
}

// store decodes a scalar collective's payload into xs.
func (w *waiter) store(xs any) {
	switch v := xs.(type) {
	case []float64:
		decodeFloat64s(v, w.data)
	case []int64:
		decodeInt64s(v, w.data)
	}
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

// ScanInt64 computes the inclusive prefix reduction in place: rank r's
// xs becomes op(xs_0, ..., xs_r), element-wise, like MPI_Scan.
// Implemented with the standard recursive-doubling partial-sums
// algorithm; each round posts its send before its receive.
func (c *Comm) ScanInt64(op Op, xs []int64) {
	n, k := c.Size(), len(xs)
	w := c.waiter()
	w.grow(k)
	// xs carries the inclusive prefix; partial the values this rank
	// forwards (the reduction of its contiguous block seen so far).
	partial := w.ints[:k]
	copy(partial, xs)
	sbuf, rbuf := w.acc[:8*k], w.tmp[:8*k]
	for mask, r := 1, 0; mask < n; mask, r = mask<<1, r+1 {
		var sr *Request
		if dst := c.rank + mask; dst < n {
			encodeInt64s(sbuf, partial)
			sr = c.Isend(dst, tagScan+r, sbuf)
		}
		if src := c.rank - mask; src >= 0 {
			c.Recv(src, tagScan+r, rbuf)
			for i := range xs {
				t := binary.LittleEndian.Uint64(rbuf[8*i:])
				xs[i] = int64(op.combine(false, t, uint64(xs[i])))
				partial[i] = int64(op.combine(false, t, uint64(partial[i])))
			}
		}
		if sr != nil {
			c.Wait(sr)
		}
	}
}

// ExscanInt64 is the exclusive prefix reduction in place: rank r's xs
// becomes op(xs_0, ..., xs_{r-1}); rank 0's becomes zeros (MPI leaves
// it undefined, and callers usually ignore it).
func (c *Comm) ExscanInt64(op Op, xs []int64) {
	k := len(xs)
	w := c.waiter()
	w.grow(k)
	orig := w.ints[k : 2*k]
	copy(orig, xs)
	c.ScanInt64(op, xs)
	switch op {
	case OpSum:
		for i := range xs {
			xs[i] -= orig[i]
		}
	default:
		// For min/max the exclusive value cannot be recovered from the
		// inclusive one; shift explicitly.
		buf := w.acc[:8*k]
		if c.rank+1 < c.Size() {
			encodeInt64s(buf, xs)
			c.Send(c.rank+1, tagScan+0xF0, buf)
		}
		if c.rank > 0 {
			c.Recv(c.rank-1, tagScan+0xF0, buf)
			decodeInt64s(xs, buf)
		} else {
			clear(xs)
		}
	}
}

// ---------------------------------------------------------------------
// Alltoallv

// AlltoallvBytes performs a timing-only personalised all-to-all: rank i
// sends sendCounts[j] bytes to rank j and receives recvCounts[j] bytes
// from rank j. Pairs where both directions are empty are skipped, the
// optimisation real MPI implementations apply and the one that makes
// MPI_Alltoallv a sensible method for b_eff's sparse ring patterns.
// Pairwise-exchange algorithm: n-1 phases, phase k pairing rank r with
// r+k (send) and r-k (receive). The counts are read before the call
// returns and not kept.
func (c *Comm) AlltoallvBytes(sendCounts, recvCounts []int64) {
	n := c.Size()
	if len(sendCounts) != n || len(recvCounts) != n {
		c.Proc().Fail("mpi: Alltoallv counts must have length %d", n)
	}
	w := c.begin()
	for step := 1; step < n; step++ {
		rd := round{src: noPeer, dst: noPeer, tag: tagAlltoallv + step}
		if dst := (c.rank + step) % n; sendCounts[dst] > 0 {
			rd.dst, rd.size = dst, sendCounts[dst]
		}
		if src := (c.rank - step + n) % n; recvCounts[src] > 0 {
			rd.src = src
		}
		if rd.src != noPeer || rd.dst != noPeer {
			w.rounds = append(w.rounds, rd)
		}
	}
	w.await()
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
