package mpi

import (
	"math"

	"github.com/hpcbench/beff/internal/des"
)

// This file holds the blocking calls: each is one des.Proc.Await over
// the calling rank's waiter, which the engine runs until the call is
// over, resuming the rank's coroutine once.

// Wait blocks until the request completes and returns its status (zero
// Status for sends). For receives the payload, if any, is copied into
// the posted buffer. Like MPI_Wait setting the handle to
// MPI_REQUEST_NULL, Wait recycles the request: the handle must not be
// used again afterwards.
func (c *Comm) Wait(r *Request) Status {
	w := c.begin()
	w.reqs = append(w.reqs, r)
	return w.await()
}

// Waitall completes all requests, in order.
func (c *Comm) Waitall(rs []*Request) {
	w := c.begin()
	// Copied, not kept: the waiter is heap-held, and holding the
	// caller's slice would move the caller's array to the heap.
	w.reqs = append(w.reqs, rs...)
	w.await()
}

// SendrecvBytes is the timing-only variant of Sendrecv.
func (c *Comm) SendrecvBytes(dst, stag int, sn int64, src, rtag int) Status {
	w := c.begin()
	w.recv(src, rtag, nil)
	w.send(dst, stag, sn, nil)
	return w.await()
}

// noPeer marks a round without a receive or without a send. It is not
// ProcNull, which is a peer a round may name: a receive from or a send
// to ProcNull is posted and completes at once.
const noPeer = math.MinInt

// round is one step of a collective: an optional receive and an
// optional send, posted together and waited receive first, as
// SendrecvBytes, SendBytes and RecvBytes wait them.
type round struct {
	src, dst int   // communicator ranks, or noPeer
	tag      int   // the tag of both directions
	size     int64 // bytes sent when the collective carries no payload
	fold     bool  // receive into the scratch and combine into the payload (no send)
}

// waiter is a rank's blocking-call state, and the des.Stepper every
// blocking call of the rank hands to Proc.Await, so a call resumes the
// rank's coroutine once however often it parks or sleeps. A call first
// owes the submission cost of a send it posted itself (Isend sleeps its
// own), then waits for its requests in order: until each is done, then
// until its completion time. A collective adds rounds: when a round's
// requests are complete the waiter posts the next round, so a whole
// collective is one Await.
//
// Each request is completed (payload copy, Status, free-lists) as soon
// as the wait passes it; that touches no virtual time.
type waiter struct {
	comm *Comm
	proc *des.Proc
	wake *des.Cond // the rank's mailbox

	overhead bool     // the call owes a submission-cost sleep...
	sleepAt  des.Time // ...until this time
	reqs     []*Request
	next     int    // reqs[:next] are complete
	status   Status // of reqs[0], once complete

	rounds []round
	round  int    // rounds[:round] are posted
	fold   bool   // the posted round combines its receive
	data   []byte // payload each round sends and receives (nil: timing only)
	tmp    []byte // a folding round's receive buffer
	op     Op
	float  bool // data holds float64s, not int64s

	// Scratch of the scalar collectives, grown once per rank: acc backs
	// their payload, and ints holds Scan's and Exscan's int64s.
	acc  []byte
	ints []int64
}

// waiter returns the caller's waiter.
func (c *Comm) waiter() *waiter { return &c.world.ranks[c.group[c.rank]].wt }

// begin readies the caller's waiter for one blocking call on c.
func (c *Comm) begin() *waiter {
	w := c.waiter()
	w.comm = c
	w.overhead = false
	w.reqs, w.next = w.reqs[:0], 0
	w.rounds, w.round, w.fold = w.rounds[:0], 0, false
	w.data, w.status = nil, Status{}
	return w
}

// recv posts a receive of the call or round.
func (w *waiter) recv(src, tag int, buf []byte) {
	w.reqs = append(w.reqs, w.comm.irecv(src, tag, buf))
}

// send posts a send of the call or round, owing its submission cost.
func (w *waiter) send(dst, tag int, size int64, data []byte) {
	c := w.comm
	w.reqs = append(w.reqs, c.post(dst, tag, size, data))
	if dst != ProcNull {
		w.overhead, w.sleepAt = true, w.proc.Now().Add(c.sendOverhead())
	}
}

// await runs the call to its end and returns the status of its first
// request.
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
			if w.fold {
				w.combine()
			}
		}
		if w.round == len(w.rounds) {
			return 0, nil, true
		}
		rd := w.rounds[w.round]
		w.round++
		w.reqs, w.next, w.fold = w.reqs[:0], 0, rd.fold
		if rd.src != noPeer {
			buf := w.data
			if rd.fold {
				buf = w.tmp
			}
			w.recv(rd.src, rd.tag, buf)
		}
		if rd.dst != noPeer {
			size := rd.size
			if w.data != nil {
				size = int64(len(w.data))
			}
			w.send(rd.dst, rd.tag, size, w.data)
		}
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
