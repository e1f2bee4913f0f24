// Package mpi is a message-passing runtime with MPI semantics running on
// the deterministic event engine of internal/des and charging time
// against the network model of internal/simnet. It provides what the
// b_eff and b_eff_io benchmarks need from a real MPI: point-to-point
// communication with eager and rendezvous protocols, nonblocking
// operations, the collectives the benchmarks and the runtime itself use
// (Barrier, Bcast, Reduce, Allreduce, Gather, Scan, Exscan, Alltoallv),
// communicator splitting, Cartesian topologies, and a virtual Wtime.
//
// Ranks are processes (coroutines) of a des.Engine; exactly one runs at
// a time, so simulations are deterministic and race-free by
// construction.
//
// # Observing a run
//
// Subscribers watch traffic by registering an Observer on the
// WorldConfig before Run:
//
//	cfg.Observe(mpi.Observer{
//		OnSend:  func(src, dst int, size int64, at des.Time) { ... },
//		OnMatch: func(src, dst int, size int64, at des.Time) { ... },
//	})
//
// Any number of observers attach independently — trace, perturb,
// check, and obs can all watch one run without knowing about each
// other. Hooks of every observer fire in registration order.
// Observer.OnEngine hands subscribers the run's engine for
// engine-level attachments such as des.Engine.OnAdvance.
package mpi

import (
	"fmt"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/simnet"
)

// AnySource and AnyTag are the wildcard values for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// internalTagBase is the start of the tag space reserved for collective
// algorithms. User tags must stay below it.
const internalTagBase = 1 << 20

// DefaultEagerLimit is the message size (bytes) up to which the eager
// protocol is used; larger messages use rendezvous. 16 kB is a typical
// production MPI default.
const DefaultEagerLimit = 16 * 1024

// WorldConfig describes the machine a World runs on.
type WorldConfig struct {
	// Net is the communication subsystem (required).
	Net *simnet.Net

	// Placement maps rank → physical processor. nil means identity.
	// Machine profiles use this for SMP round-robin vs sequential
	// process numbering, which the paper shows changes b_eff heavily on
	// the Hitachi SR 8000.
	Placement []int

	// EagerLimit is the eager/rendezvous protocol switch point in
	// bytes; zero means DefaultEagerLimit.
	EagerLimit int64

	// Procs is the number of MPI processes. Zero means one process per
	// physical processor of Net.
	Procs int

	// Observers holds the composable subscribers registered with
	// Observe.
	Observers []Observer

	// Metrics, when non-nil, is incremented on the runtime's hot
	// paths: protocol traffic, matching, and free-list churn. It is
	// attached to the World built by Run.
	Metrics *Metrics
}

// Observer is one composable subscriber to a World run. Any field may
// be nil; non-nil hooks of every registered observer fire in
// registration order. Hooks run inside the simulation (while no other
// rank runs) and must not block or call back into the engine.
type Observer struct {
	// OnSend observes every point-to-point message at the moment it is
	// submitted: world ranks of sender and receiver, payload size in
	// bytes, and the submission time. Collectives are implemented on
	// point-to-point, so the hook sees all traffic. Sends to ProcNull
	// carry no message and are not reported. internal/check installs
	// its byte-conservation ledger here.
	OnSend func(src, dst int, size int64, at des.Time)

	// OnMatch observes every message at the moment it is bound to a
	// receive (world ranks, size, current virtual time). Each message
	// is bound exactly once, so pairing OnSend and OnMatch
	// observations yields an exactly-once delivery ledger: any message
	// sent but never received, or double-counted, shows up as a pair
	// imbalance.
	OnMatch func(src, dst int, size int64, at des.Time)

	// OnEngine runs once, after Run has created the event engine and
	// before any rank starts. It is the handle for engine-level
	// attachments — des.Engine.SetMetrics, des.Engine.OnAdvance
	// subscriptions — that callers cannot reach otherwise, because the
	// engine does not outlive Run.
	OnEngine func(e *des.Engine)
}

// Observe registers a composable observer; it may be called any
// number of times before Run.
func (cfg *WorldConfig) Observe(o Observer) {
	cfg.Observers = append(cfg.Observers, o)
}

// Metrics is the MPI runtime's optional observability hook-up. All
// fields may be nil (obs instruments are nil-safe); a nil *Metrics
// costs one branch per message. Counting happens at submission and
// match time and never touches virtual time, so enabling metrics
// cannot change results.
type Metrics struct {
	// EagerMessages/EagerBytes and RendezvousMessages/RendezvousBytes
	// split point-to-point traffic by protocol phase at the
	// EagerLimit.
	EagerMessages   *obs.Counter
	EagerBytes      *obs.Counter
	RendezvousMsgs  *obs.Counter
	RendezvousBytes *obs.Counter

	// MatchesPosted counts messages that found a posted receive
	// waiting; MatchesUnexpected counts receives that found the
	// message already queued in the unexpected inbox.
	MatchesPosted     *obs.Counter
	MatchesUnexpected *obs.Counter

	// Free-list hit/miss pairs for the per-message hot-path pools.
	MsgPoolHits   *obs.Counter
	MsgPoolMisses *obs.Counter
	ReqPoolHits   *obs.Counter
	ReqPoolMisses *obs.Counter
	BufPoolHits   *obs.Counter
	BufPoolMisses *obs.Counter

	// MessageBytes is the payload size distribution of all
	// point-to-point messages.
	MessageBytes *obs.Histogram
}

// World owns the shared state of one MPI job.
type World struct {
	cfg     WorldConfig
	eng     *des.Engine
	net     *simnet.Net
	ranks   []*rankState
	nextCtx int

	// Free-lists for the per-message hot-path objects. The engine runs
	// exactly one rank at a time, so these need no locks; a full b_eff
	// run pushes millions of messages through them. Requests are
	// recycled when Wait returns (the MPI_REQUEST_NULL moment), messages
	// and payload snapshots when the receiving Wait has copied them out.
	freeMsgs []*message
	freeReqs []*Request
	freeBufs [][]byte

	// onSend and onMatch are the observer hooks compiled at Run from
	// the registered Observers.
	onSend  []func(src, dst int, size int64, at des.Time)
	onMatch []func(src, dst int, size int64, at des.Time)

	metrics *Metrics
}

// notifySend fans a message submission out to every registered
// observer.
func (w *World) notifySend(src, dst int, size int64, at des.Time) {
	for _, fn := range w.onSend {
		fn(src, dst, size, at)
	}
}

// notifyMatch fans a message match out to every registered observer.
func (w *World) notifyMatch(src, dst int, size int64, at des.Time) {
	for _, fn := range w.onMatch {
		fn(src, dst, size, at)
	}
}

// newMessage pops a zeroed message from the free-list.
func (w *World) newMessage() *message {
	if n := len(w.freeMsgs); n > 0 {
		m := w.freeMsgs[n-1]
		w.freeMsgs = w.freeMsgs[:n-1]
		if wm := w.metrics; wm != nil {
			wm.MsgPoolHits.Inc()
		}
		return m
	}
	if wm := w.metrics; wm != nil {
		wm.MsgPoolMisses.Inc()
	}
	return &message{}
}

// freeMessage recycles a message and its pooled payload snapshot.
func (w *World) freeMessage(m *message) {
	if m.data != nil {
		w.putBuf(m.data)
	}
	*m = message{}
	w.freeMsgs = append(w.freeMsgs, m)
}

// newRequest pops a zeroed request from the free-list.
func (w *World) newRequest() *Request {
	if n := len(w.freeReqs); n > 0 {
		r := w.freeReqs[n-1]
		w.freeReqs = w.freeReqs[:n-1]
		if wm := w.metrics; wm != nil {
			wm.ReqPoolHits.Inc()
		}
		return r
	}
	if wm := w.metrics; wm != nil {
		wm.ReqPoolMisses.Inc()
	}
	return &Request{}
}

// freeRequest recycles a completed request. Callers must be done with
// every field: the handle may be reused by the very next operation.
func (w *World) freeRequest(r *Request) {
	*r = Request{}
	w.freeReqs = append(w.freeReqs, r)
}

// maxPooledBufs bounds the payload-snapshot pool; beyond it buffers
// fall back to the garbage collector.
const maxPooledBufs = 64

// getBuf returns a pooled byte slice of length n (eager and rendezvous
// payload snapshots are short-lived: injection to receiving Wait).
func (w *World) getBuf(n int) []byte {
	if l := len(w.freeBufs); l > 0 {
		b := w.freeBufs[l-1]
		if cap(b) >= n {
			w.freeBufs = w.freeBufs[:l-1]
			if wm := w.metrics; wm != nil {
				wm.BufPoolHits.Inc()
			}
			return b[:n]
		}
	}
	if wm := w.metrics; wm != nil {
		wm.BufPoolMisses.Inc()
	}
	return make([]byte, n)
}

// putBuf returns a payload snapshot to the pool.
func (w *World) putBuf(b []byte) {
	if cap(b) == 0 || len(w.freeBufs) >= maxPooledBufs {
		return
	}
	w.freeBufs = append(w.freeBufs, b)
}

// rankState is the per-rank message-passing state.
type rankState struct {
	proc   *des.Proc
	inbox  []*message // unexpected messages, in send order
	posted []*Request // posted receives, in post order
	wake   *des.Cond  // broadcast on any delivery or completion
	wt     waiter     // state of the rank's blocking calls
}

// Run builds a World of n ranks on the given configuration, runs body
// once per rank, and returns when all ranks have finished. It is the
// only entry point: a World cannot outlive its engine run.
func Run(cfg WorldConfig, body func(c *Comm)) error {
	if cfg.Net == nil {
		return fmt.Errorf("mpi: WorldConfig.Net is required")
	}
	n := cfg.Procs
	if n == 0 {
		n = cfg.Net.NumProcs()
	}
	if n < 1 {
		return fmt.Errorf("mpi: need at least one process, got %d", n)
	}
	if cfg.Placement != nil && len(cfg.Placement) != n {
		return fmt.Errorf("mpi: placement has %d entries for %d ranks", len(cfg.Placement), n)
	}
	for _, p := range cfg.Placement {
		if p < 0 || p >= cfg.Net.NumProcs() {
			return fmt.Errorf("mpi: placement entry %d out of range [0,%d)", p, cfg.Net.NumProcs())
		}
	}
	if cfg.EagerLimit == 0 {
		cfg.EagerLimit = DefaultEagerLimit
	}
	eng := des.NewEngine()
	w := &World{cfg: cfg, eng: eng, net: cfg.Net, nextCtx: 1, metrics: cfg.Metrics}
	for _, o := range cfg.Observers {
		if o.OnSend != nil {
			w.onSend = append(w.onSend, o.OnSend)
		}
		if o.OnMatch != nil {
			w.onMatch = append(w.onMatch, o.OnMatch)
		}
		if o.OnEngine != nil {
			o.OnEngine(eng)
		}
	}
	w.ranks = make([]*rankState, n)
	for i := range w.ranks {
		w.ranks[i] = &rankState{wake: eng.NewCond(fmt.Sprintf("rank %d mailbox", i))}
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	return eng.Run(n, func(p *des.Proc) {
		p.SetLabel(fmt.Sprintf("rank %d", p.ID()))
		st := w.ranks[p.ID()]
		st.proc = p
		st.wt.proc, st.wt.wake = p, st.wake
		c := &Comm{world: w, ctx: 0, rank: p.ID(), group: group}
		body(c)
	})
}

// phys maps a world rank to its physical processor.
func (w *World) phys(worldRank int) int {
	if w.cfg.Placement == nil {
		return worldRank
	}
	return w.cfg.Placement[worldRank]
}
