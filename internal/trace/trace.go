// Package trace collects message events from a simulation's network
// and renders them as a summary or as Chrome trace-event JSON
// (chrome://tracing, Perfetto). The network model exposes a plain
// function hook so this package stays optional and dependency-free;
// register with simnet.Net.Observe.
package trace

import (
	"fmt"
	"io"
	"sort"

	"github.com/hpcbench/beff/internal/des"
)

// MessageEvent is one network transfer.
type MessageEvent struct {
	Src, Dst   int
	Size       int64
	Start, End des.Time
}

// Collector accumulates events. It is safe for use from a single
// des.Engine run (which serialises); wrap externally if several engines
// share one collector.
type Collector struct {
	Messages []MessageEvent
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// OnTransfer is the hook for simnet.Net.Observe.
func (c *Collector) OnTransfer(src, dst int, size int64, start, end des.Time) {
	c.Messages = append(c.Messages, MessageEvent{Src: src, Dst: dst, Size: size, Start: start, End: end})
}

// Summary aggregates the collected events.
type Summary struct {
	Messages     int
	MessageBytes int64
	BusiestPair  [2]int
	BusiestBytes int64
	Horizon      des.Time
}

// Summarize computes totals and hot spots.
func (c *Collector) Summarize() Summary {
	var s Summary
	pair := map[[2]int]int64{}
	for _, m := range c.Messages {
		s.Messages++
		s.MessageBytes += m.Size
		k := [2]int{m.Src, m.Dst}
		pair[k] += m.Size
		if m.End > s.Horizon {
			s.Horizon = m.End
		}
	}
	for k, b := range pair {
		if b > s.BusiestBytes || (b == s.BusiestBytes && less(k, s.BusiestPair)) {
			s.BusiestBytes = b
			s.BusiestPair = k
		}
	}
	return s
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// WriteChromeTrace emits the events in the Chrome trace-event format:
// one complete ("X") event per message on its sender's row (pid 0,
// tid = source rank). Timestamps are microseconds of virtual time.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	// Stable ordering for reproducible output.
	msgs := append([]MessageEvent(nil), c.Messages...)
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Start < msgs[j].Start })
	for i, m := range msgs {
		sep := ",\n"
		if i == 0 {
			sep = ""
		}
		dur := m.End.Sub(m.Start)
		if dur < 1 {
			dur = 1
		}
		if _, err := fmt.Fprintf(w,
			`%s  {"name":"msg %d->%d","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"bytes":%d,"dst":%d}}`,
			sep, m.Src, m.Dst, float64(m.Start)/1e3, float64(dur)/1e3, m.Src, m.Size, m.Dst); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

func (s Summary) String() string {
	return fmt.Sprintf(
		"trace: %d messages (%d bytes), busiest pair %d->%d (%d bytes); horizon %v",
		s.Messages, s.MessageBytes, s.BusiestPair[0], s.BusiestPair[1], s.BusiestBytes, s.Horizon)
}
