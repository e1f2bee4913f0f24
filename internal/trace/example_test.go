package trace_test

import (
	"fmt"
	"os"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/trace"
)

// A Collector plugs into the simulation through one plain hook,
// simnet.Net.Observe. Here the hook is invoked directly with a tiny
// hand-made schedule; in a real run the network calls it (see
// examples/tracing and cmd/beff -trace).
func ExampleCollector_Summarize() {
	c := trace.New()
	us := func(n int64) des.Time { return des.Time(n * 1000) }

	// Rank 0 sends 1 kB to rank 1 twice; rank 1 answers once.
	c.OnTransfer(0, 1, 1024, us(0), us(10))
	c.OnTransfer(0, 1, 1024, us(10), us(20))
	c.OnTransfer(1, 0, 1024, us(20), us(30))

	s := c.Summarize()
	fmt.Println(s)
	// Output:
	// trace: 3 messages (3072 bytes), busiest pair 0->1 (2048 bytes); horizon 30.000us
}

// WriteChromeTrace renders the same events as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto: each message sits on its
// sender's row.
func ExampleCollector_WriteChromeTrace() {
	c := trace.New()
	c.OnTransfer(0, 1, 256, 0, des.Time(5000))
	c.OnTransfer(2, 0, 4096, des.Time(5000), des.Time(9000))
	if err := c.WriteChromeTrace(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// [
	//   {"name":"msg 0->1","ph":"X","ts":0.000,"dur":5.000,"pid":0,"tid":0,"args":{"bytes":256,"dst":1}},
	//   {"name":"msg 2->0","ph":"X","ts":5.000,"dur":4.000,"pid":0,"tid":2,"args":{"bytes":4096,"dst":0}}
	// ]
}
