package check

import (
	"sort"
	"sync"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
)

// WorldWatch is the MPI-level exactly-once delivery ledger plus the
// virtual-clock monotonicity assertion. It counts every point-to-point
// message (collectives included — they are built on point-to-point) as
// it is submitted and as it is matched to a receive; at Checker.Finish
// the two ledgers must agree per (sender, receiver) world-rank pair.
// A message sent but never received, received twice, or invented by
// the runtime shows up as a pair imbalance.
//
// Use one WorldWatch per world: the clock assertion keeps no state
// across engines.
type WorldWatch struct {
	c *Checker

	mu        sync.Mutex
	sentBytes map[[2]int]int64
	sentMsgs  map[[2]int]int64
	recvBytes map[[2]int]int64
	recvMsgs  map[[2]int]int64
}

// WatchWorld registers send, match, and clock observers on the world
// configuration via the composable Observer API; any other
// subscribers (trace, perturb, obs) attach independently. The config
// is mutated in place; call before mpi.Run (or core.Run / beffio.Run,
// which run the world for you).
func (c *Checker) WatchWorld(cfg *mpi.WorldConfig) *WorldWatch {
	w := &WorldWatch{
		c:         c,
		sentBytes: map[[2]int]int64{},
		sentMsgs:  map[[2]int]int64{},
		recvBytes: map[[2]int]int64{},
		recvMsgs:  map[[2]int]int64{},
	}
	cfg.Observe(mpi.Observer{
		OnSend:   w.ObserveSend,
		OnMatch:  w.ObserveMatch,
		OnEngine: func(e *des.Engine) { e.OnAdvance(w.ObserveClock) },
	})
	c.onFinish(w.verify)
	return w
}

// ObserveSend records a message submission. Exported so the
// deliberate-violation tests can drive the ledger directly.
func (w *WorldWatch) ObserveSend(src, dst int, size int64, at des.Time) {
	if size < 0 {
		w.c.Reportf("mpi/message-size", "rank %d sends %d bytes to rank %d", src, size, dst)
	}
	if at < 0 {
		w.c.Reportf("mpi/causality", "rank %d sends at negative time %v", src, at)
	}
	k := [2]int{src, dst}
	w.mu.Lock()
	w.sentBytes[k] += size
	w.sentMsgs[k]++
	w.mu.Unlock()
}

// ObserveMatch records a message being bound to a receive.
func (w *WorldWatch) ObserveMatch(src, dst int, size int64, at des.Time) {
	if size < 0 {
		w.c.Reportf("mpi/message-size", "rank %d receives %d bytes from rank %d", dst, size, src)
	}
	if at < 0 {
		w.c.Reportf("mpi/causality", "rank %d matches a receive at negative time %v", dst, at)
	}
	k := [2]int{src, dst}
	w.mu.Lock()
	w.recvBytes[k] += size
	w.recvMsgs[k]++
	w.mu.Unlock()
}

// ObserveClock asserts that the virtual clock never runs backwards.
func (w *WorldWatch) ObserveClock(from, to des.Time) {
	if to < from {
		w.c.Reportf("des/clock-monotone", "virtual clock ran backwards: %v → %v", from, to)
	}
	if from < 0 {
		w.c.Reportf("des/clock-monotone", "virtual clock is negative: %v", from)
	}
}

// Pairs returns the set of (src, dst) world-rank pairs either ledger
// has seen, sorted.
func (w *WorldWatch) Pairs() [][2]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	set := map[[2]int]bool{}
	for k := range w.sentMsgs {
		set[k] = true
	}
	for k := range w.recvMsgs {
		set[k] = true
	}
	out := make([][2]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (w *WorldWatch) verify() {
	for _, k := range w.Pairs() {
		w.mu.Lock()
		sb, sm := w.sentBytes[k], w.sentMsgs[k]
		rb, rm := w.recvBytes[k], w.recvMsgs[k]
		w.mu.Unlock()
		if sb != rb || sm != rm {
			w.c.Reportf("mpi/byte-conservation",
				"rank %d → rank %d: sent %d B in %d messages, received %d B in %d",
				k[0], k[1], sb, sm, rb, rm)
		}
	}
}
