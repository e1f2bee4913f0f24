package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simnet"
)

func collectRun(t *testing.T) *Collector {
	t.Helper()
	col, err := doRun()
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func doRun() (*Collector, error) {
	col := New()
	net := simnet.New(simnet.Config{
		Fabric:       simnet.NewCrossbar(4, 0, des.Microsecond),
		TxBandwidth:  100e6,
		RxBandwidth:  100e6,
		SendOverhead: 2 * des.Microsecond,
		RecvOverhead: 2 * des.Microsecond,
	})
	net.Observe(col.OnTransfer)
	err := mpi.Run(mpi.WorldConfig{Net: net}, func(c *mpi.Comm) {
		n := c.Size()
		r, l := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		c.SendrecvBytes(r, 0, 100_000, l, 0)
		c.Barrier()
	})
	if err != nil {
		return nil, err
	}
	return col, nil
}

func TestCollectorGathersEvents(t *testing.T) {
	col := collectRun(t)
	if len(col.Messages) == 0 {
		t.Fatal("no message events")
	}
	for _, m := range col.Messages {
		if m.End < m.Start {
			t.Errorf("message ends before it starts: %+v", m)
		}
	}
}

func TestSummarize(t *testing.T) {
	col := collectRun(t)
	s := col.Summarize()
	if s.Messages != len(col.Messages) {
		t.Errorf("summary counts wrong: %+v", s)
	}
	if s.MessageBytes < 4*100_000 {
		t.Errorf("bytes wrong: %+v", s)
	}
	if s.Horizon <= 0 {
		t.Error("no horizon")
	}
	if !strings.Contains(s.String(), "messages") {
		t.Error("summary String malformed")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	col := collectRun(t)
	var sb strings.Builder
	if err := col.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String()[:200])
	}
	if len(events) != len(col.Messages) {
		t.Errorf("%d events, want %d", len(events), len(col.Messages))
	}
	for _, e := range events {
		if e["ph"] != "X" || e["dur"].(float64) <= 0 {
			t.Errorf("bad event %v", e)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	a, b := collectRun(t), collectRun(t)
	var sa, sb strings.Builder
	if err := a.WriteChromeTrace(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Error("trace output not reproducible")
	}
}

func TestSummaryBusiestPair(t *testing.T) {
	col := New()
	col.OnTransfer(0, 1, 100, 0, 10)
	col.OnTransfer(0, 1, 100, 10, 20)
	col.OnTransfer(2, 3, 150, 0, 10)
	s := col.Summarize()
	if s.BusiestPair != [2]int{0, 1} || s.BusiestBytes != 200 {
		t.Errorf("busiest pair = %v (%d)", s.BusiestPair, s.BusiestBytes)
	}
}

// TestConcurrentCollectorsIndependent: each simulation run owns its
// collector, and concurrent runs must not leak state into each other —
// the summaries of eight parallel runs of a deterministic simulation
// are identical to a serial one. Run with -race, this also proves the
// collector hooks share nothing behind the scenes.
func TestConcurrentCollectorsIndependent(t *testing.T) {
	reference := collectRun(t).Summarize()
	const n = 8
	summaries := make([]Summary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col, err := doRun()
			if err != nil {
				errs[i] = err
				return
			}
			summaries[i] = col.Summarize()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d failed: %v", i, err)
		}
	}
	for i, s := range summaries {
		if s != reference {
			t.Errorf("concurrent run %d diverged:\n got %+v\nwant %+v", i, s, reference)
		}
	}
}

func TestEmptyCollector(t *testing.T) {
	col := New()
	s := col.Summarize()
	if s.Messages != 0 {
		t.Error("phantom events")
	}
	var sb strings.Builder
	if err := col.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil || len(events) != 0 {
		t.Errorf("empty trace should be valid empty JSON array: %v", err)
	}
}
