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

// combine folds a waited round's received words (tmp) into its
// result: a reduction's into the payload, data[i] = op(data[i], tmp[i]),
// and a scan's into its values and partial result.
func (w *waiter) combine(rd *round) {
	if rd.kind == scanRecvRound {
		w.scanCombine(rd)
		return
	}
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
	b := c.Batch()
	b.Barrier()
	b.Run()
}

// barrier appends Barrier's rounds.
func (w *waiter) barrier() {
	c := w.comm
	size := c.Size()
	for k, r := 1, 0; k < size; k, r = k<<1, r+1 {
		w.add(round{
			src: (c.rank - k + size) % size, rtag: tagBarrier + r,
			dst: (c.rank + k) % size, stag: tagBarrier + r, wait: true,
		})
	}
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
			w.add(round{src: (c.rank - mask + n) % n, rtag: tagBcast, dst: noPeer, wait: true})
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if relrank+mask < n {
			w.add(round{src: noPeer, dst: (c.rank + mask) % n, stag: tagBcast, size: size, wait: true})
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
			w.add(round{src: noPeer, dst: ((relrank &^ mask) + root) % n, stag: tagReduce, wait: true})
			return
		}
		if srcRel := relrank | mask; srcRel < n {
			w.add(round{src: (srcRel + root) % n, rtag: tagReduce, dst: noPeer, fold: true, wait: true})
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
// algorithm; each round posts its send before its receive, and waits
// for the receive before the send.
func (c *Comm) ScanInt64(op Op, xs []int64) {
	b := c.Batch()
	b.ScanInt64(op, xs)
	b.Run()
}

// ExscanInt64 is the exclusive prefix reduction in place: rank r's xs
// becomes op(xs_0, ..., xs_{r-1}); rank 0's becomes zeros (MPI leaves
// it undefined, and callers usually ignore it).
func (c *Comm) ExscanInt64(op Op, xs []int64) {
	b := c.Batch()
	b.ExscanInt64(op, xs)
	b.Run()
}

// scan appends ScanInt64's rounds, or ExscanInt64's if exclusive. A
// recursive-doubling round is a send round and a receive round; the
// receive round names the round's send peer, if it has one, in dst.
func (w *waiter) scan(op Op, xs []int64, exclusive bool) {
	c := w.comm
	n := c.Size()
	a := w.arg(callArgs{xs: xs, op: op})
	w.add(round{kind: scanLoadRound, arg: a})
	for mask, r := 1, 0; mask < n; mask, r = mask<<1, r+1 {
		rd := round{kind: scanRecvRound, src: noPeer, dst: noPeer, rtag: tagScan + r, arg: a}
		if dst := c.rank + mask; dst < n {
			w.add(round{kind: scanSendRound, src: noPeer, dst: dst, stag: tagScan + r, arg: a})
			rd.dst = dst
		}
		if src := c.rank - mask; src >= 0 {
			rd.src = src
		}
		if rd.src != noPeer || rd.dst != noPeer {
			w.add(rd)
		}
	}
	if !exclusive {
		return
	}
	if op != OpSum {
		// For min/max the exclusive value cannot be recovered from the
		// inclusive one; shift explicitly.
		w.add(round{kind: loadRound, arg: a})
		if c.rank+1 < n {
			w.add(round{src: noPeer, dst: c.rank + 1, stag: tagScan + 0xF0, wait: true})
		}
		if c.rank > 0 {
			w.add(round{src: c.rank - 1, rtag: tagScan + 0xF0, dst: noPeer, wait: true})
		}
	}
	w.add(round{kind: exscanRound, arg: a})
}

// scanLoad readies a scan's scratch: tmp receives the partial results
// of the ranks below, and ints holds the partial result this rank
// forwards (the reduction of its contiguous block seen so far), then
// the values as they were.
func (w *waiter) scanLoad(rd *round) {
	xs := w.args[rd.arg].xs
	k := len(xs)
	w.grow(k)
	w.tmp = w.tmp[:8*k]
	copy(w.ints[:k], xs)
	copy(w.ints[k:2*k], xs)
}

// scanSend posts a scan round's send of the partial result.
func (w *waiter) scanSend(rd *round) {
	k := len(w.args[rd.arg].xs)
	buf := w.acc[:8*k]
	encodeInt64s(buf, w.ints[:k])
	w.send(rd.dst, rd.stag, int64(len(buf)), buf)
}

// scanRecv posts a scan round's receive, if it has one, and waits for
// it before the round's send.
func (w *waiter) scanRecv(rd *round) {
	if rd.src != noPeer {
		w.recv(rd.src, rd.rtag, w.tmp)
		if rd.dst != noPeer {
			n := len(w.reqs)
			w.reqs[n-2], w.reqs[n-1] = w.reqs[n-1], w.reqs[n-2]
		}
		w.fold = rd
	}
	w.waiting = true
}

// scanCombine folds a scan round's received partial result into the
// values and into this rank's partial result.
func (w *waiter) scanCombine(rd *round) {
	a := &w.args[rd.arg]
	partial := w.ints[:len(a.xs)]
	for i := range a.xs {
		t := binary.LittleEndian.Uint64(w.tmp[8*i:])
		a.xs[i] = int64(a.op.combine(false, t, uint64(a.xs[i])))
		partial[i] = int64(a.op.combine(false, t, uint64(partial[i])))
	}
}

// exscan makes a finished inclusive scan exclusive: OpSum subtracts the
// values as they were; the other ops take what the shift rounds
// received from the rank below, and rank 0 takes zeros.
func (w *waiter) exscan(rd *round) {
	a := &w.args[rd.arg]
	k := len(a.xs)
	switch {
	case a.op == OpSum:
		for i, x := range w.ints[k : 2*k] {
			a.xs[i] -= x
		}
	case w.comm.rank > 0:
		decodeInt64s(a.xs, w.data)
	default:
		clear(a.xs)
	}
	w.data = nil
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
	b := c.Batch()
	b.AlltoallvBytes(sendCounts, recvCounts)
	b.Run()
}

// alltoallv posts the next phase of an AlltoallvBytes round that moves
// anything, reading the counts now, and reports whether there was one.
// After the last phase it owes the self block's local copy.
func (w *waiter) alltoallv(rd *round) bool {
	c := w.comm
	n := c.Size()
	a := &w.args[rd.arg]
	send, recv := a.xs, a.ys
	if w.step == 0 && (len(send) != n || len(recv) != n) {
		c.Proc().Fail("mpi: Alltoallv counts must have length %d", n)
	}
	for w.step++; w.step < n; w.step++ {
		// dst = rank+step and src = rank-step, mod n, without a
		// division.
		dst, src := c.rank+w.step, c.rank-w.step
		if dst >= n {
			dst -= n
		}
		if src < 0 {
			src += n
		}
		if recv[src] > 0 {
			w.recv(src, tagAlltoallv+w.step, nil)
		}
		if send[dst] > 0 {
			w.send(dst, tagAlltoallv+w.step, send[dst], nil)
		}
		if recv[src] > 0 || send[dst] > 0 {
			w.waiting = true
			return true
		}
	}
	w.step = 0
	if self := send[c.rank]; self > 0 {
		w.sleep(w.proc.Now().Add(c.world.net.CopyTime(self)))
	}
	return false
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
