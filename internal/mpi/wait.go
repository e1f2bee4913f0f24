package mpi

import (
	"math"

	"github.com/hpcbench/beff/internal/des"
)

// This file holds the blocking calls and batches of them: each is one
// des.Proc.Await over the calling rank's waiter, which the engine runs
// until the batch is over, resuming the rank's coroutine once. A
// blocking call is a batch of one call.

// Batch is a sequence of blocking calls a rank hands the engine at
// once: Run waits them all, one after another, and resumes the rank's
// coroutine once, however many calls the batch holds. A batch gives
// the schedule the same calls made one by one give — every message
// leaves and is matched at the same virtual time — so a timing loop
// built as a batch measures what the loop of calls measures, at a
// fraction of the coroutine switches.
//
// A rank builds one batch at a time, with Comm.Batch, and makes no MPI
// call on any communicator between Batch and Run. The calls record
// their arguments: nothing is posted before Run. A call that takes a
// slice reads it when the call posts, during Run, and a reduction or
// scan writes its result there when it is over: the caller leaves the
// slice alone until Run returns, except from a Host step, which may
// fill it for a later call of the batch.
type Batch struct {
	w   *waiter
	seq uint64 // the waiter's begin count when the batch was made
}

// Batch starts an empty batch of blocking calls on c.
func (c *Comm) Batch() Batch {
	w := c.begin()
	return Batch{w: w, seq: w.seq}
}

// waiter returns the batch's waiter, failing the rank if the batch has
// run or a blocking call or another batch has begun since it was made.
func (b Batch) waiter() *waiter {
	if b.w.seq != b.seq {
		b.w.proc.Fail("mpi: batch used after its Run or another blocking call or batch began")
	}
	return b.w
}

// Barrier adds Comm.Barrier.
func (b Batch) Barrier() { b.waiter().barrier() }

// SendrecvBytes adds Comm.SendrecvBytes.
func (b Batch) SendrecvBytes(dst, stag int, sn int64, src, rtag int) {
	b.waiter().add(round{src: src, rtag: rtag, dst: dst, stag: stag, size: sn, wait: true})
}

// AlltoallvBytes adds Comm.AlltoallvBytes. Each phase reads the counts
// when it posts.
func (b Batch) AlltoallvBytes(sendCounts, recvCounts []int64) {
	w := b.waiter()
	w.add(round{kind: alltoallvRound, arg: w.arg(callArgs{xs: sendCounts, ys: recvCounts})})
}

// AllreduceInt64 adds Allreduce of int64s: xs is read when the call
// posts and holds the result once the call is over.
func (b Batch) AllreduceInt64(op Op, xs []int64) {
	w := b.waiter()
	a := w.arg(callArgs{xs: xs, op: op})
	w.add(round{kind: loadRound, arg: a})
	w.reduceRounds(0)
	w.bcastRounds(0, 0)
	w.add(round{kind: storeRound, arg: a})
}

// ScanInt64 adds Comm.ScanInt64: xs is read when the call posts and
// holds the result once the call is over.
func (b Batch) ScanInt64(op Op, xs []int64) { b.waiter().scan(op, xs, false) }

// ExscanInt64 adds Comm.ExscanInt64, reading and writing xs as
// ScanInt64 does.
func (b Batch) ExscanInt64(op Op, xs []int64) { b.waiter().scan(op, xs, true) }

// Host is host code a batch runs at its place among the calls
// (Batch.Host): once the calls before it are over, and before the
// calls after it post anything.
type Host interface {
	// HostStep runs the code's next step at the rank's current time
	// (Comm.Time). It either ends the code (sleep false) or asks the
	// rank to sleep until the given time, with des.Proc.SleepUntil's
	// semantics: even a sleep to the current time yields to the
	// processes queued at it. After a sleep the batch calls HostStep
	// again. HostStep may fail the rank and change shared simulation
	// state, but must not block or make MPI calls.
	HostStep() (until des.Time, sleep bool)
}

// Host adds host code at this point of the batch. h is kept until Run
// returns.
func (b Batch) Host(h Host) {
	w := b.waiter()
	w.add(round{kind: hostRound, arg: w.arg(callArgs{host: h})})
}

// IrecvBytes adds Comm.IrecvBytes; the batch's next Waitall completes
// the receive.
func (b Batch) IrecvBytes(src, tag int) {
	b.waiter().add(round{src: src, rtag: tag, dst: noPeer})
}

// IsendBytes adds Comm.IsendBytes; the batch's next Waitall completes
// the send. Like Isend, the send costs its submission overhead before
// the batch goes on.
func (b Batch) IsendBytes(dst, tag int, n int64) {
	b.waiter().add(round{src: noPeer, dst: dst, stag: tag, size: n})
}

// Waitall adds the Waitall of every receive and send the batch added
// since its last Waitall, in the order they were added.
func (b Batch) Waitall() { b.waiter().add(round{src: noPeer, dst: noPeer, wait: true}) }

// Mark records the virtual time at this point of the batch, for Run to
// return: the time Comm.Time would report between the calls before the
// mark and the calls after it.
func (b Batch) Mark() { b.waiter().add(round{kind: markRound}) }

// Run makes the batch's calls and returns the time of its last Mark
// (zero without one). The batch cannot be used again.
func (b Batch) Run() des.Time {
	w := b.waiter()
	w.await()
	w.seq++
	return w.mark
}

// Wait blocks until the request completes and returns its status (zero
// Status for sends). For receives the payload, if any, is copied into
// the posted buffer. Like MPI_Wait setting the handle to
// MPI_REQUEST_NULL, Wait recycles the request: the handle must not be
// used again afterwards.
func (c *Comm) Wait(r *Request) Status {
	b := c.Batch()
	b.w.reqs = append(b.w.reqs, r)
	b.Waitall()
	return b.w.await()
}

// Waitall completes all requests, in order.
func (c *Comm) Waitall(rs []*Request) {
	b := c.Batch()
	// Copied, not kept: the waiter is heap-held, and holding the
	// caller's slice would move the caller's array to the heap.
	b.w.reqs = append(b.w.reqs, rs...)
	b.Waitall()
	b.Run()
}

// SendrecvBytes is the timing-only variant of Sendrecv.
func (c *Comm) SendrecvBytes(dst, stag int, sn int64, src, rtag int) Status {
	b := c.Batch()
	b.SendrecvBytes(dst, stag, sn, src, rtag)
	return b.w.await()
}

// noPeer marks a round without a receive or without a send. It is not
// ProcNull, which is a peer a round may name: a receive from or a send
// to ProcNull is posted and completes at once.
const noPeer = math.MinInt

// roundKind says what a round does.
type roundKind int8

const (
	postRound      roundKind = iota // post a receive and a send
	markRound                       // record the clock for Batch.Run
	sleepRound                      // sleep for size nanoseconds
	alltoallvRound                  // post AlltoallvBytes's phases, one at a time
	hostRound                       // run a Host's steps
	loadRound                       // make the call's values the payload
	storeRound                      // write the payload back to the values
	scanLoadRound                   // ready a scan's scratch
	scanSendRound                   // post a scan round's send
	scanRecvRound                   // post its receive, wait both
	exscanRound                     // make a finished scan exclusive
)

// round is one step of a blocking call or batch. A posting round posts
// an optional receive and an optional send, receive first; a send costs
// its submission overhead, slept before anything else happens. If wait
// is set the round then waits for every request posted since the last
// wait, in posting order, as SendrecvBytes, Waitall and the rounds of a
// collective wait them. The other kinds read their call's arguments
// when the round is reached.
type round struct {
	src, dst   int   // communicator ranks, or noPeer
	rtag, stag int   // the tags of the receive and of the send
	size       int64 // bytes sent when the call carries no payload; a sleep's length
	arg        int32 // the call's arguments: the waiter's args[arg]
	kind       roundKind
	fold       bool // receive into the scratch and combine into the payload (no send)
	wait       bool
}

// callArgs are a batched call's arguments, kept until Run returns.
type callArgs struct {
	xs, ys []int64 // a reduction's or scan's values; Alltoallv's send and receive counts
	op     Op
	host   Host
}

// waiter is a rank's blocking-call state, and the des.Stepper every
// blocking call and batch of the rank hands to Proc.Await, so a batch
// resumes the rank's coroutine once however often it parks or sleeps.
// A batch is a list of rounds, which the waiter runs in order: it posts
// a round's requests, sleeps the submission cost of a send it posted,
// and, at a waiting round, waits for the requests in order: until each
// is done, then until its completion time. A collective is a list of
// rounds that each wait, so a whole collective is one Await, and so is
// a batch of calls.
//
// Each request is completed (payload copy, Status, free-lists) as soon
// as the wait passes it; that touches no virtual time.
type waiter struct {
	comm *Comm
	proc *des.Proc
	wake *des.Cond // the rank's mailbox
	seq  uint64    // blocking calls and batches begun, and batches run

	overhead bool     // a sleep is owed...
	sleepAt  des.Time // ...until this time
	reqs     []*Request
	waiting  bool     // reqs are being waited
	next     int      // reqs[:next] are complete
	status   Status   // of reqs[0], once complete
	mark     des.Time // the clock at the batch's last Mark

	rounds []round
	args   []callArgs
	round  int    // rounds[:round] are posted
	step   int    // the Alltoallv phase rounds[round] posted last
	fold   *round // the waited round that combines its receive, or nil
	data   []byte // payload each round sends and receives (nil: timing only)
	tmp    []byte // a folding round's receive buffer
	op     Op
	float  bool // data holds float64s, not int64s

	// Scratch of the scalar collectives, grown once per rank: acc backs
	// their payload, and ints holds a scan's partial result and its
	// values as they were.
	acc  []byte
	ints []int64
}

// waiter returns the caller's waiter.
func (c *Comm) waiter() *waiter { return &c.world.ranks[c.group[c.rank]].wt }

// begin readies the caller's waiter for one blocking call or batch on
// c.
func (c *Comm) begin() *waiter {
	w := c.waiter()
	w.comm = c
	w.seq++
	w.overhead, w.waiting = false, false
	w.reqs, w.next = w.reqs[:0], 0
	clear(w.args)
	w.rounds, w.args, w.round, w.step, w.fold = w.rounds[:0], w.args[:0], 0, 0, nil
	w.data, w.status, w.mark = nil, Status{}, 0
	return w
}

// add appends a round to the call or batch.
func (w *waiter) add(rd round) { w.rounds = append(w.rounds, rd) }

// arg keeps a call's arguments and returns their index.
func (w *waiter) arg(a callArgs) int32 {
	w.args = append(w.args, a)
	return int32(len(w.args) - 1)
}

// recv posts a receive of the round.
func (w *waiter) recv(src, tag int, buf []byte) {
	w.reqs = append(w.reqs, w.comm.irecv(src, tag, buf))
}

// send posts a send of the round, owing its submission cost.
func (w *waiter) send(dst, tag int, size int64, data []byte) {
	c := w.comm
	w.reqs = append(w.reqs, c.post(dst, tag, size, data))
	if dst != ProcNull {
		w.sleep(w.proc.Now().Add(c.sendOverhead()))
	}
}

// sleep owes a sleep until t, which the next Step returns.
func (w *waiter) sleep(t des.Time) { w.overhead, w.sleepAt = true, t }

// await runs the call or batch to its end and returns the status of
// the first request of its last wait.
func (w *waiter) await() Status {
	w.proc.Await(w)
	return w.status
}

// Step implements des.Stepper.
func (w *waiter) Step() (des.Time, *des.Cond, bool) {
	for {
		if w.overhead {
			w.overhead = false
			return w.sleepAt, nil, false
		}
		if w.waiting {
			for ; w.next < len(w.reqs); w.next++ {
				r := w.reqs[w.next]
				if !r.done {
					return 0, w.wake, false
				}
				if r.at > w.proc.Now() {
					return r.at, nil, false
				}
				st := w.complete(r)
				if w.next == 0 {
					w.status = st
				}
			}
			w.reqs, w.next, w.waiting = w.reqs[:0], 0, false
			if rd := w.fold; rd != nil {
				w.fold = nil
				w.combine(rd)
			}
		}
		if w.round == len(w.rounds) {
			return 0, nil, true
		}
		rd := &w.rounds[w.round]
		w.round++
		switch rd.kind {
		case markRound:
			w.mark = w.proc.Now()
			continue
		case sleepRound:
			w.sleep(w.proc.Now().Add(des.Duration(rd.size)))
			continue
		case alltoallvRound:
			if w.alltoallv(rd) {
				w.round--
			}
			continue
		case hostRound:
			if until, sleep := w.args[rd.arg].host.HostStep(); sleep {
				w.sleep(until)
				w.round--
			}
			continue
		case loadRound:
			a := &w.args[rd.arg]
			w.load(a.xs, a.op)
			continue
		case storeRound:
			decodeInt64s(w.args[rd.arg].xs, w.data)
			w.data = nil
			continue
		case scanLoadRound:
			w.scanLoad(rd)
			continue
		case scanSendRound:
			w.scanSend(rd)
			continue
		case scanRecvRound:
			w.scanRecv(rd)
			continue
		case exscanRound:
			w.exscan(rd)
			continue
		}
		if rd.fold {
			w.fold = rd
		}
		if rd.src != noPeer {
			buf := w.data
			if rd.fold {
				buf = w.tmp
			}
			w.recv(rd.src, rd.rtag, buf)
		}
		if rd.dst != noPeer {
			size := rd.size
			if w.data != nil {
				size = int64(len(w.data))
			}
			w.send(rd.dst, rd.stag, size, w.data)
		}
		w.waiting = rd.wait
	}
}

// complete finishes a request whose wait is over and recycles it. For
// receives the payload, if any, is copied into the posted buffer.
func (w *waiter) complete(r *Request) Status {
	world := w.comm.world
	if r.kind == reqRecv && r.msg != nil {
		m := r.msg
		// Truncation is an error whenever a buffer was posted, even for
		// timing-only senders: MPI's rule depends on the advertised
		// message size, not on whether payload bytes were carried.
		if r.buf != nil && int64(len(r.buf)) < m.size {
			w.proc.Fail("mpi: message of %d bytes truncated into %d-byte buffer (src %d tag %d)",
				m.size, len(r.buf), m.src, m.tag)
		}
		if m.data != nil && r.buf != nil {
			copy(r.buf, m.data)
		}
		r.status = Status{Source: r.comm.groupRankOf(m.src), Tag: m.tag, Size: m.size}
		world.freeMessage(m)
		r.msg = nil
	}
	status := r.status
	world.freeRequest(r)
	return status
}
