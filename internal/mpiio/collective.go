package mpiio

import (
	"math"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
)

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
	// plan is made by the first rank to build its call's batch and
	// filled (planned) by the first past the size exchange.
	plan     *tpPlan
	planned  bool
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

// newPlan returns an empty plan for size ranks: zeroed counts, no runs.
func newPlan(size int) *tpPlan {
	return &tpPlan{send: countMatrix(size), recv: countMatrix(size), runs: make([][]extent, size)}
}

// fill makes the empty plan p the plan for the deposits: it partitions
// [lo,hi) into file domains aligned to the stripe unit, spread over the
// given number of aggregators, and assigns each rank's deposited
// extents to the owning aggregators. Every deposit is sorted by offset
// and disjoint (see View.appendExtents), so the bounds come from its
// ends and the aggregator runs from one k-way merge of all deposits.
func (plan *tpPlan) fill(deposits [][]extent, aggregators int, stripe int64) {
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
	if lo < 0 || hi <= lo {
		return // nothing to move
	}
	aggs := aggregatorRanks(aggregators, len(deposits))
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

// A collective call is one mpi.Batch, so it resumes the rank once: the
// size exchange, the plan, the shuffle, the file accesses and the
// closing barrier run as the batch's calls and host steps, each at the
// point of the schedule where the call would make it. The host steps
// are views of the rank's File; the call's state between them lives in
// File.cc, so a call allocates nothing for its batch.
type (
	claimStep  File // ordered access: claim the base, place the extents
	planStep   File // two-phase: build the plan, queue the aggregator's runs
	accessStep File // the queued file accesses, one per step
)

// collCall is a rank's state of the collective call in progress.
type collCall struct {
	seq   int64
	cs    *callState
	write bool
	size  int64  // an ordered call's request size
	data  []byte // an ordered write's payload, stored once placed

	// The values the batch's reductions read and write: the ordered
	// offset (Exscan), the ordered total and the size exchange.
	prefix, total, span [1]int64

	// The file accesses left: extents, accessed in chunks of at most
	// chunk bytes, and the next offset and bytes left of the current
	// one.
	todo             []extent
	off, left, chunk int64
}

// begin numbers a call that takes part in the coordination and looks
// up its shared state.
func (f *File) begin() *collCall {
	cc := &f.cc
	cc.seq = f.nextSeq()
	cc.cs = f.sh.coord.state(cc.seq, f.comm.Size())
	return cc
}

// finish retires the rank from the call; the last rank out drops the
// shared state.
func (f *File) finish() {
	cc := &f.cc
	cc.cs.finished++
	if cc.cs.finished == f.comm.Size() {
		delete(f.sh.coord.calls, cc.seq)
	}
	cc.cs, cc.data = nil, nil
}

// deposit publishes the rank's extents for the plan and loads the size
// exchange with their span.
func (f *File) deposit(exts []extent) {
	cc := &f.cc
	cc.cs.deposits[f.comm.Rank()] = exts
	var lo, hi int64 = 1 << 62, 0
	if len(exts) > 0 {
		last := exts[len(exts)-1]
		lo, hi = exts[0].off, last.off+last.size
	}
	cc.span[0] = hi - lo
}

// queue makes exts the file accesses of the next access step.
func (f *File) queue(exts []extent, chunk int64) {
	f.cc.todo, f.cc.left, f.cc.chunk = exts, 0, chunk
}

// twoPhase adds one collective transfer to b: synchronise, build the
// plan once, redistribute data over the network, let aggregators
// access their merged file domains in collective-buffer-sized slices,
// and synchronise again. The rank has deposited its extents.
func (f *File) twoPhase(b mpi.Batch) {
	c := f.comm
	cs := f.cc.cs
	if cs.plan == nil {
		cs.plan = newPlan(c.Size())
	}
	// Synchronisation doubling as the offset/shape exchange of real
	// two-phase implementations: after this, every deposit is visible.
	b.AllreduceInt64(mpi.OpMax, f.cc.span[:])
	b.Host((*planStep)(f))
	// Phase one: redistribute the payload between ranks and their
	// aggregators (for reads this happens after the disk phase on real
	// systems; the cost is symmetric, so we charge the same traffic).
	// The plan step fills the counts before the shuffle posts.
	b.AlltoallvBytes(cs.plan.send[c.Rank()], cs.plan.recv[c.Rank()])
	// Phase two: aggregators access their file domains.
	b.Host((*accessStep)(f))
	b.Barrier()
}

// HostStep builds the call's plan, if no rank has yet, and queues this
// rank's aggregator runs.
func (s *planStep) HostStep() (des.Time, bool) {
	f := (*File)(s)
	cs := f.cc.cs
	plan := cs.plan
	if !cs.planned {
		plan.fill(cs.deposits, f.info.Aggregators, f.fs.Config().StripeUnit)
		cs.planned = true
	}
	r := f.comm.Rank()
	if m := f.info.Metrics; m != nil {
		m.CollectiveOps.Inc()
		var shuffled int64
		for _, n := range plan.send[r] {
			shuffled += n
		}
		m.ShuffleBytes.Add(shuffled)
	}
	f.queue(plan.runs[r], f.info.CollBufferSize)
	return 0, false
}

// HostStep starts the next queued access and sleeps until it is over.
func (s *accessStep) HostStep() (des.Time, bool) {
	f := (*File)(s)
	cc := &f.cc
	for cc.left == 0 {
		if len(cc.todo) == 0 {
			return 0, false
		}
		cc.off, cc.left = cc.todo[0].off, cc.todo[0].size
		cc.todo = cc.todo[1:]
	}
	n := min(cc.left, cc.chunk)
	done := f.sf.Access(f.comm.Proc(), f.clientID(), cc.off, n, nil, cc.write)
	cc.off += n
	cc.left -= n
	return done, true
}

// storeContent records a write's payload over its extents, in order.
func (f *File) storeContent(exts []extent, data []byte) {
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

// collectiveAccess is the one batch of WriteAllAt and ReadAllAt. With
// NoCollectiveBuffering it degrades to independent accesses plus the
// collective synchronisation.
func (f *File) collectiveAccess(off, size int64, data []byte, write bool) {
	exts := f.view.appendExtents(f.extBuf[:0], off, size)
	f.extBuf = exts
	if write && data != nil {
		f.storeContent(exts, data)
	}
	f.cc.write = write
	b := f.comm.Batch()
	if f.info.NoCollectiveBuffering {
		f.queue(exts, math.MaxInt64)
		b.Host((*accessStep)(f))
		b.Barrier()
		b.Run()
		return
	}
	f.begin()
	f.deposit(exts)
	f.twoPhase(b)
	b.Run()
	f.finish()
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

// orderedAccess is the one batch of WriteOrdered and ReadOrdered.
func (f *File) orderedAccess(size int64, data []byte, write bool) {
	cc := f.begin()
	cc.write, cc.size, cc.data = write, size, data
	// Each rank's ordered offset is the exclusive prefix sum of the
	// request sizes — computed with MPI_Exscan + MPI_Allreduce, the way
	// MPI_File_write_ordered implementations do it.
	cc.prefix[0], cc.total[0] = size, size
	b := f.comm.Batch()
	b.ExscanInt64(mpi.OpSum, cc.prefix[:])
	b.AllreduceInt64(mpi.OpSum, cc.total[:])
	b.Host((*claimStep)(f))
	if f.info.NoCollectiveBuffering {
		b.Host((*accessStep)(f))
		b.Barrier()
	} else {
		f.twoPhase(b)
	}
	b.Run()
	f.finish()
}

// HostStep places an ordered access. The first rank past the size
// exchange claims the current shared pointer as this call's base and
// advances it for the whole group; everyone else reads the recorded
// base. Execution order between ranks therefore cannot skew the
// offsets.
func (s *claimStep) HostStep() (des.Time, bool) {
	f := (*File)(s)
	cc := &f.cc
	cs := cc.cs
	if !cs.orderedClaimed {
		cs.orderedBase = f.sh.sharedPtr
		f.sh.sharedPtr += cc.total[0]
		cs.orderedClaimed = true
	}
	exts := f.view.appendExtents(f.extBuf[:0], cs.orderedBase+cc.prefix[0], cc.size)
	f.extBuf = exts
	if cc.write && cc.data != nil {
		f.storeContent(exts, cc.data)
	}
	if f.info.NoCollectiveBuffering {
		f.queue(exts, math.MaxInt64)
	} else {
		f.deposit(exts)
	}
	return 0, false
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
