package check

import (
	"sync"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/simnet"
)

// NetWatch is the network-level conservation ledger. It observes every
// transfer through simnet's composable Observe registration (so it
// coexists with a trace collector or obs instrumentation without
// chaining) and, at Checker.Finish, cross-checks its own totals
// against the Net's internal byte and message counters: every
// transfer the fabric accounts for must have been announced to the
// observers, and vice versa. While the run is live it asserts
// per-transfer causality.
type NetWatch struct {
	c     *Checker
	net   *simnet.Net
	procs int

	mu    sync.Mutex
	bytes int64
	msgs  int64
}

// WatchNet installs a NetWatch on the network. Registration order
// relative to other observers does not matter; call before the
// simulation runs.
func (c *Checker) WatchNet(net *simnet.Net) *NetWatch {
	w := &NetWatch{c: c, net: net, procs: net.NumProcs()}
	net.Observe(w.ObserveTransfer)
	c.onFinish(w.verify)
	return w
}

// ObserveTransfer records one transfer. It is the installed hook body,
// exported so the deliberate-violation tests can drive it directly.
func (w *NetWatch) ObserveTransfer(src, dst int, size int64, start, end des.Time) {
	if size < 0 {
		w.c.Reportf("net/transfer-size", "transfer %d→%d carries negative size %d", src, dst, size)
	}
	if start < 0 || end < start {
		w.c.Reportf("net/causality", "transfer %d→%d of %d B arrives at %v, before its injection at %v",
			src, dst, size, end, start)
	}
	if src < 0 || src >= w.procs || dst < 0 || dst >= w.procs {
		w.c.Reportf("net/endpoints", "transfer between processors %d and %d outside [0,%d)",
			src, dst, w.procs)
	}
	w.mu.Lock()
	w.bytes += size
	w.msgs++
	w.mu.Unlock()
}

func (w *NetWatch) verify() {
	w.mu.Lock()
	bytes, msgs := w.bytes, w.msgs
	w.mu.Unlock()
	if bytes != w.net.BytesMoved() || msgs != w.net.Messages() {
		w.c.Reportf("net/byte-conservation",
			"observers saw %d B in %d transfers, but the fabric accounted %d B in %d",
			bytes, msgs, w.net.BytesMoved(), w.net.Messages())
	}
}
