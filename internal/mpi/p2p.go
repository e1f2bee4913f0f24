package mpi

import (
	"github.com/hpcbench/beff/internal/des"
)

// Status describes a completed receive.
type Status struct {
	Source int // rank within the receiving communicator's group
	Tag    int
	Size   int64
}

// message is the envelope travelling between ranks. Matching happens on
// (ctx, src, tag); timing on availAt and the rendezvous fields.
type message struct {
	ctx     int
	src     int // world rank of sender
	tag     int
	size    int64
	data    []byte   // nil for timing-only traffic
	availAt des.Time // eager: payload arrival; rendezvous: RTS arrival

	rendezvous bool
	sendReq    *Request // rendezvous: sender's request, completed at bind
	bound      bool
}

type reqKind int8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a nonblocking operation handle, akin to MPI_Request.
type Request struct {
	kind reqKind
	comm *Comm
	done bool
	at   des.Time // completion time once done
	msg  *message // recv: the bound message
	buf  []byte   // recv: destination buffer
	// matching criteria for a posted receive (world-rank src or AnySource)
	src, tag, ctx int
	status        Status
}

// Done reports whether the operation has completed (its completion time
// may still be in the caller's future).
func (r *Request) Done() bool { return r.done }

// ---------------------------------------------------------------------
// Sending

// Isend starts a nonblocking send of data to rank dst (communicator
// rank) with the given tag and returns immediately after the CPU-side
// submission cost. Complete it with Wait or Waitall.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return c.isend(dst, tag, int64(len(data)), data)
}

// IsendBytes is Isend for timing-only payloads of n bytes: no user data
// is carried, which is what a bandwidth benchmark needs.
func (c *Comm) IsendBytes(dst, tag int, n int64) *Request {
	return c.isend(dst, tag, n, nil)
}

func (c *Comm) isend(dst, tag int, size int64, data []byte) *Request {
	r := c.post(dst, tag, size, data)
	if dst != ProcNull {
		c.Proc().Sleep(c.sendOverhead())
	}
	return r
}

// sendOverhead is the CPU submission cost of a send: the same software
// overhead the network model charges before injection, including any
// straggler slowdown of the sending processor. Isend sleeps it; the
// blocking calls owe it to their waiter.
func (c *Comm) sendOverhead() des.Duration {
	return c.world.net.SendOverheadFor(c.world.phys(c.group[c.rank]))
}

// post submits a send and returns its request, without the submission
// cost. A send to ProcNull posts nothing and returns a done request.
func (c *Comm) post(dst, tag int, size int64, data []byte) *Request {
	if dst == ProcNull {
		r := c.world.newRequest()
		r.kind, r.comm, r.done, r.at = reqSend, c, true, c.Proc().Now()
		return r
	}
	if dst < 0 || dst >= len(c.group) {
		c.Proc().Fail("mpi: Isend to invalid rank %d in communicator of size %d", dst, len(c.group))
	}
	if size < 0 {
		c.Proc().Fail("mpi: Isend with negative size %d", size)
	}
	w := c.world
	p := c.Proc()
	srcWorld := c.group[c.rank]
	dstWorld := c.group[dst]
	sp, dp := w.phys(srcWorld), w.phys(dstWorld)

	w.notifySend(srcWorld, dstWorld, size, p.Now())
	if wm := w.metrics; wm != nil {
		wm.MessageBytes.Observe(size)
		if size <= w.cfg.EagerLimit {
			wm.EagerMessages.Inc()
			wm.EagerBytes.Add(size)
		} else {
			wm.RendezvousMsgs.Inc()
			wm.RendezvousBytes.Add(size)
		}
	}
	req := w.newRequest()
	req.kind, req.comm = reqSend, c
	m := w.newMessage()
	m.ctx, m.src, m.tag, m.size = c.ctx, srcWorld, tag, size
	if size <= w.cfg.EagerLimit {
		// Eager: inject now; the payload is buffered so the sender is
		// free as soon as injection ends.
		if data != nil {
			m.data = w.getBuf(len(data))
			copy(m.data, data)
		}
		senderFree, arrival := w.net.Transfer(sp, dp, size, p.Now())
		m.availAt = arrival
		req.done = true
		req.at = senderFree
	} else {
		// Rendezvous: a small ready-to-send control message travels to
		// the receiver; the payload moves once the receiver matches.
		m.rendezvous = true
		m.sendReq = req
		m.data = data // referenced, copied out at delivery
		m.availAt = p.Now().Add(w.net.Latency(sp, dp))
	}
	w.deliver(dstWorld, m)
	return req
}

// Send is a blocking send: Isend followed by Wait.
func (c *Comm) Send(dst, tag int, data []byte) {
	w := c.begin()
	w.data = data
	w.add(round{src: noPeer, dst: dst, stag: tag, wait: true})
	w.await()
}

// SendBytes is a blocking timing-only send of n bytes.
func (c *Comm) SendBytes(dst, tag int, n int64) {
	w := c.begin()
	w.add(round{src: noPeer, dst: dst, stag: tag, size: n, wait: true})
	w.await()
}

// ---------------------------------------------------------------------
// Receiving

// Irecv posts a nonblocking receive into buf from rank src (or
// AnySource) with the given tag (or AnyTag). The message size may be
// smaller than buf; larger messages fail the simulation (truncation is
// an error, as in MPI).
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	return c.irecv(src, tag, buf)
}

// IrecvBytes posts a timing-only receive.
func (c *Comm) IrecvBytes(src, tag int) *Request {
	return c.irecv(src, tag, nil)
}

func (c *Comm) irecv(src, tag int, buf []byte) *Request {
	if src == ProcNull {
		r := c.world.newRequest()
		r.kind, r.comm, r.done, r.at = reqRecv, c, true, c.Proc().Now()
		r.status = Status{Source: ProcNull, Tag: AnyTag}
		return r
	}
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		c.Proc().Fail("mpi: Irecv from invalid rank %d in communicator of size %d", src, len(c.group))
	}
	w := c.world
	srcWorld := AnySource
	if src != AnySource {
		srcWorld = c.group[src]
	}
	me := c.group[c.rank]
	req := w.newRequest()
	req.kind, req.comm = reqRecv, c
	req.src, req.tag, req.ctx, req.buf = srcWorld, tag, c.ctx, buf
	st := w.ranks[me]
	// Try the unexpected-message queue first, in send order.
	for i, m := range st.inbox {
		if req.matches(m) {
			st.inbox = append(st.inbox[:i], st.inbox[i+1:]...)
			if wm := w.metrics; wm != nil {
				wm.MatchesUnexpected.Inc()
			}
			w.bind(m, req)
			return req
		}
	}
	st.posted = append(st.posted, req)
	return req
}

// Recv is a blocking receive; it returns the matched message's status.
func (c *Comm) Recv(src, tag int, buf []byte) Status {
	w := c.begin()
	w.data = buf
	w.add(round{src: src, rtag: tag, dst: noPeer, wait: true})
	return w.await()
}

// RecvBytes is a blocking timing-only receive.
func (c *Comm) RecvBytes(src, tag int) Status {
	w := c.begin()
	w.add(round{src: src, rtag: tag, dst: noPeer, wait: true})
	return w.await()
}

func (r *Request) matches(m *message) bool {
	if m.ctx != r.ctx {
		return false
	}
	if r.src != AnySource && m.src != r.src {
		return false
	}
	if r.tag != AnyTag && m.tag != r.tag {
		return false
	}
	return true
}

// ---------------------------------------------------------------------
// Delivery and matching (runs in the sender's context)

// deliver hands a message to the destination rank: bind to a posted
// receive if one matches, otherwise queue as unexpected. Always wakes
// the destination so blocked Waits re-check.
func (w *World) deliver(dstWorld int, m *message) {
	st := w.ranks[dstWorld]
	for i, req := range st.posted {
		if req.matches(m) {
			st.posted = append(st.posted[:i], st.posted[i+1:]...)
			if wm := w.metrics; wm != nil {
				wm.MatchesPosted.Inc()
			}
			w.bind(m, req)
			return
		}
	}
	st.inbox = append(st.inbox, m)
	st.wake.WakeAt(m.availAt)
}

// bind joins a message to a receive request. For rendezvous messages
// this is the moment the payload transfer is scheduled: the receiver's
// clear-to-send travels back, then the data crosses the network,
// reserving bandwidth along its path.
func (w *World) bind(m *message, req *Request) {
	m.bound = true
	req.msg = m
	dstWorld := req.comm.group[req.comm.rank]
	w.notifyMatch(m.src, dstWorld, m.size, w.eng.Now())
	st := w.ranks[dstWorld]
	if !m.rendezvous {
		req.done = true
		req.at = m.availAt
		st.wake.WakeAt(m.availAt)
		return
	}
	// The payload leaves the sender's buffer now: the sender's request
	// completes at senderFree, which precedes the receiver-side arrival,
	// and MPI lets the sender reuse its buffer as soon as its own Wait
	// returns. Snapshotting at bind keeps the bytes the receiver reads
	// independent of that reuse (the sender cannot have run between its
	// Isend and this bind — its request was not yet complete).
	if m.data != nil {
		snap := w.getBuf(len(m.data))
		copy(snap, m.data)
		m.data = snap
	}
	sp := w.phys(m.src)
	dp := w.phys(req.comm.group[req.comm.rank])
	now := w.eng.Now()
	rtsSeen := m.availAt
	if now > rtsSeen {
		rtsSeen = now
	}
	ctsArrive := rtsSeen.Add(w.net.Latency(dp, sp))
	senderFree, arrival := w.net.Transfer(sp, dp, m.size, ctsArrive)
	m.availAt = arrival
	m.sendReq.done = true
	m.sendReq.at = senderFree
	m.sendReq = nil // the sender's Wait owns (and recycles) it from here
	sst := w.ranks[m.src]
	sst.wake.WakeAt(senderFree)
	req.done = true
	req.at = arrival
	st.wake.WakeAt(arrival)
}
