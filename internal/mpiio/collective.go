package mpiio

import "github.com/hpcbench/beff/internal/mpi"

// coordination is the shared state behind a file's collective calls.
// MPI requires all ranks to issue collective operations in the same
// order, so each rank numbers its collective calls locally and the
// numbers agree; deposits and plans are keyed by that sequence number.
type coordination struct {
	calls map[int64]*callState
}

func newCoordination() *coordination {
	return &coordination{calls: map[int64]*callState{}}
}

type callState struct {
	deposits [][]extent // by rank
	plan     *tpPlan
	finished int

	// ordered-access bookkeeping (WriteOrdered/ReadOrdered)
	orderedClaimed bool
	orderedBase    int64
}

// state returns the shared state of collective call seq on a
// communicator of size ranks.
func (co *coordination) state(seq int64, size int) *callState {
	cs := co.calls[seq]
	if cs == nil {
		cs = &callState{deposits: make([][]extent, size)}
		co.calls[seq] = cs
	}
	return cs
}

// tpPlan is a two-phase transfer plan: who sends how much to which
// aggregator, and the merged extent runs each aggregator accesses. All
// three are indexed by rank; send and recv rows are views into one
// size×size buffer each.
type tpPlan struct {
	send [][]int64  // rank → per-destination byte counts
	recv [][]int64  // rank → per-source byte counts
	runs [][]extent // aggregator rank → merged extents in its domain
}

// countMatrix returns size rows of size zeroed counts backed by one
// allocation.
func countMatrix(size int) [][]int64 {
	flat := make([]int64, size*size)
	rows := make([][]int64, size)
	for r := range rows {
		rows[r] = flat[r*size : (r+1)*size : (r+1)*size]
	}
	return rows
}

// aggregatorRanks spreads a aggregators evenly over size ranks.
func aggregatorRanks(a, size int) []int {
	if a > size {
		a = size
	}
	out := make([]int, a)
	for i := 0; i < a; i++ {
		out[i] = i * size / a
	}
	return out
}

// makePlan partitions [lo,hi) into file domains aligned to the stripe
// unit, spread over the given number of aggregators, and assigns each
// rank's deposited extents to the owning aggregators. Every deposit is
// sorted by offset and disjoint (see View.appendExtents), so the bounds
// come from its ends and the aggregator runs from one k-way merge of
// all deposits.
func makePlan(deposits [][]extent, aggregators int, stripe int64) *tpPlan {
	size := len(deposits)
	var lo, hi int64 = -1, 0
	for _, exts := range deposits {
		if len(exts) == 0 {
			continue
		}
		if lo < 0 || exts[0].off < lo {
			lo = exts[0].off
		}
		if last := exts[len(exts)-1]; last.off+last.size > hi {
			hi = last.off + last.size
		}
	}
	plan := &tpPlan{
		send: countMatrix(size),
		recv: countMatrix(size),
		runs: make([][]extent, size),
	}
	if lo < 0 || hi <= lo {
		return plan // nothing to move
	}
	aggs := aggregatorRanks(aggregators, size)
	span := hi - lo
	chunk := (span + int64(len(aggs)) - 1) / int64(len(aggs))
	if rem := chunk % stripe; rem != 0 {
		chunk += stripe - rem
	}
	// Domain i is [lo+i*chunk, lo+(i+1)*chunk) clipped to hi; the
	// domains cover [lo,hi), so every byte has exactly one owner.
	//
	// Sends: an extent starts in domain (off-lo)/chunk and reaches
	// forward only as far as it still overlaps.
	for r, exts := range deposits {
		send := plan.send[r]
		for _, e := range exts {
			end := e.off + e.size
			for i := (e.off - lo) / chunk; lo+i*chunk < end; i++ {
				dlo := lo + i*chunk
				send[aggs[i]] += minI64(end, dlo+chunk) - maxI64(e.off, dlo)
			}
		}
		for _, agg := range aggs {
			plan.recv[agg][r] = send[agg]
		}
	}
	// Aggregator runs: the union of all deposits, cut at domain
	// boundaries into one backing slice.
	union := unionSorted(deposits)
	cut := make([]extent, 0, len(union)+len(aggs)-1)
	cur, first := 0, 0
	for _, u := range union {
		for s, end := u.off, u.off+u.size; s < end; {
			i := int((s - lo) / chunk)
			if i != cur {
				plan.runs[aggs[cur]] = cut[first:len(cut):len(cut)]
				cur, first = i, len(cut)
			}
			t := minI64(end, lo+int64(i+1)*chunk)
			cut = append(cut, extent{s, t - s})
			s = t
		}
	}
	plan.runs[aggs[cur]] = cut[first:]
	return plan
}

// unionSorted returns the union of lists, each sorted by offset, as
// coalesced extents in ascending order: extents that overlap or touch
// become one. It is a k-way merge over a min-heap of the lists' unread
// tails, keyed by each tail's first offset.
func unionSorted(lists [][]extent) []extent {
	h := make([][]extent, 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, l)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var out []extent
	for len(h) > 0 {
		e := h[0][0]
		if last := len(out) - 1; last >= 0 && e.off <= out[last].off+out[last].size {
			if end := e.off + e.size; end > out[last].off+out[last].size {
				out[last].size = end - out[last].off
			}
		} else {
			out = append(out, e)
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the min-heap order of h, by first offset, below
// index i.
func siftDown(h [][]extent, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l][0].off < h[m][0].off {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r][0].off < h[m][0].off {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// twoPhase executes one collective transfer: synchronise, build the
// plan once, redistribute data over the network, and let aggregators
// access their merged file domains in collective-buffer-sized slices.
func (f *File) twoPhase(seq int64, exts []extent, write bool) {
	c := f.comm
	co := f.sh.coord
	cs := co.state(seq, c.Size())
	cs.deposits[c.Rank()] = exts

	// Synchronisation doubling as the offset/shape exchange of real
	// two-phase implementations: after this, every deposit is visible.
	var myLo, myHi int64 = 1 << 62, 0
	if len(exts) > 0 {
		last := exts[len(exts)-1]
		myLo, myHi = exts[0].off, last.off+last.size
	}
	c.AllreduceInt64(mpi.OpMax, []int64{myHi - myLo})

	if cs.plan == nil {
		cs.plan = makePlan(cs.deposits, f.info.Aggregators, f.fs.Config().StripeUnit)
	}
	plan := cs.plan

	// Phase one: redistribute the payload between ranks and their
	// aggregators (for reads this happens after the disk phase on real
	// systems; the cost is symmetric, so we charge the same traffic).
	if m := f.info.Metrics; m != nil {
		m.CollectiveOps.Inc()
		var shuffled int64
		for _, n := range plan.send[c.Rank()] {
			shuffled += n
		}
		m.ShuffleBytes.Add(shuffled)
	}
	c.AlltoallvBytes(plan.send[c.Rank()], plan.recv[c.Rank()])

	// Phase two: aggregators access their file domains.
	if runs := plan.runs[c.Rank()]; len(runs) > 0 {
		p := c.Proc()
		client := f.clientID()
		bufSize := f.info.CollBufferSize
		for _, run := range runs {
			off, left := run.off, run.size
			for left > 0 {
				n := left
				if n > bufSize {
					n = bufSize
				}
				if write {
					f.sf.WriteAt(p, client, off, n, nil)
				} else {
					f.sf.ReadAt(p, client, off, n)
				}
				off += n
				left -= n
			}
		}
	}
	c.Barrier()
	cs.finished++
	if cs.finished == c.Size() {
		delete(co.calls, seq)
	}
}

// degradedCollective is the NoCollectiveBuffering path: independent
// accesses plus the collective synchronisation.
func (f *File) degradedCollective(exts []extent, write bool, data []byte) {
	p := f.comm.Proc()
	client := f.clientID()
	var cursor int64
	for _, e := range exts {
		if write {
			f.sf.WriteAt(p, client, e.off, e.size, nil)
			if data != nil && cursor < int64(len(data)) {
				end := minI64(cursor+e.size, int64(len(data)))
				f.sf.StoreContent(e.off, data[cursor:end])
			}
		} else {
			f.sf.ReadAt(p, client, e.off, e.size)
		}
		cursor += e.size
	}
	f.comm.Barrier()
}

// ---------------------------------------------------------------------
// Collective API

// WriteAllAt is the collective write at an explicit view-relative
// offset (MPI_File_write_at_all). All ranks must call it.
func (f *File) WriteAllAt(off, size int64, data []byte) {
	f.checkWrite()
	f.collectiveAccess(off, size, data, true)
}

// ReadAllAt is the collective read at an explicit view-relative offset
// (MPI_File_read_at_all).
func (f *File) ReadAllAt(off, size int64) {
	f.checkRead()
	f.collectiveAccess(off, size, nil, false)
}

// WriteAll writes collectively at the individual file pointer and
// advances it (MPI_File_write_all).
func (f *File) WriteAll(size int64, data []byte) {
	f.WriteAllAt(f.ptr, size, data)
	f.ptr += size
}

// ReadAll reads collectively at the individual file pointer and
// advances it (MPI_File_read_all).
func (f *File) ReadAll(size int64) {
	f.ReadAllAt(f.ptr, size)
	f.ptr += size
}

func (f *File) collectiveAccess(off, size int64, data []byte, write bool) {
	exts := f.view.appendExtents(f.extBuf[:0], off, size)
	f.extBuf = exts
	if write && data != nil {
		var cursor int64
		for _, e := range exts {
			if cursor >= int64(len(data)) {
				break
			}
			end := minI64(cursor+e.size, int64(len(data)))
			f.sf.StoreContent(e.off, data[cursor:end])
			cursor += e.size
		}
	}
	if f.info.NoCollectiveBuffering {
		f.degradedCollective(exts, write, nil)
		return
	}
	seq := f.nextSeq()
	f.twoPhase(seq, exts, write)
}

// WriteOrdered writes collectively at the shared file pointer in rank
// order (MPI_File_write_ordered): rank r's data lands after the data of
// all lower ranks, and the shared pointer advances by the total.
func (f *File) WriteOrdered(size int64, data []byte) {
	f.checkWrite()
	f.orderedAccess(size, data, true)
}

// ReadOrdered reads collectively at the shared file pointer in rank
// order (MPI_File_read_ordered).
func (f *File) ReadOrdered(size int64) {
	f.checkRead()
	f.orderedAccess(size, nil, false)
}

func (f *File) orderedAccess(size int64, data []byte, write bool) {
	c := f.comm
	seq := f.nextSeq()
	// Each rank's ordered offset is the exclusive prefix sum of the
	// request sizes — computed with MPI_Exscan + MPI_Allreduce, the way
	// MPI_File_write_ordered implementations do it.
	prefix := c.ExscanInt64(mpi.OpSum, []int64{size})[0]
	total := c.AllreduceInt64(mpi.OpSum, []int64{size})[0]
	// The first rank past the size exchange claims the current shared
	// pointer as this call's base and advances it for the whole group;
	// everyone else reads the recorded base. Execution order between
	// ranks therefore cannot skew the offsets.
	cs := f.sh.coord.state(seq, c.Size())
	if !cs.orderedClaimed {
		cs.orderedBase = f.sh.sharedPtr
		f.sh.sharedPtr += total
		cs.orderedClaimed = true
	}
	myOff := cs.orderedBase + prefix

	exts := f.view.appendExtents(f.extBuf[:0], myOff, size)
	f.extBuf = exts
	if write && data != nil {
		var cursor int64
		for _, e := range exts {
			if cursor >= int64(len(data)) {
				break
			}
			end := minI64(cursor+e.size, int64(len(data)))
			f.sf.StoreContent(e.off, data[cursor:end])
			cursor += e.size
		}
	}
	if f.info.NoCollectiveBuffering {
		f.degradedCollective(exts, write, nil)
		cs.finished++
		if cs.finished == c.Size() {
			delete(f.sh.coord.calls, seq)
		}
		return
	}
	f.twoPhase(seq, exts, write)
}

func (f *File) nextSeq() int64 {
	f.collSeq++
	return f.collSeq
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
