package runner

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squareCells builds n uncached cells where later cells finish first,
// to exercise out-of-order completion.
func squareCells(n int) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func() (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return cells
}

func TestSweepPreservesCellOrder(t *testing.T) {
	cells := squareCells(16)
	res := Sweep(cells, Options{Workers: 8})
	if err := Err(res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Key != cells[i].Key || r.Value != i*i {
			t.Fatalf("result %d: got (%s, %d), want (%s, %d)", i, r.Key, r.Value, cells[i].Key, i*i)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := Values(Sweep(squareCells(12), Options{Workers: 1}))
	parallel := Values(Sweep(squareCells(12), Options{Workers: 8}))
	if fmt.Sprint(serial) != fmt.Sprint(parallel) {
		t.Fatalf("worker count changed results:\n -j 1: %v\n -j 8: %v", serial, parallel)
	}
}

func TestPanicIsolation(t *testing.T) {
	cells := []Cell[int]{
		{Key: "ok-a", Run: func() (int, error) { return 1, nil }},
		{Key: "boom", Run: func() (int, error) { panic("cell exploded") }},
		{Key: "ok-b", Run: func() (int, error) { return 2, nil }},
	}
	res := Sweep(cells, Options{Workers: 2})
	if res[0].Err != nil || res[0].Value != 1 || res[2].Err != nil || res[2].Value != 2 {
		t.Fatalf("healthy cells disturbed by panicking sibling: %+v", res)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "cell exploded") {
		t.Fatalf("panic not captured: %v", res[1].Err)
	}
	err := Err(res)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "1 of 3") {
		t.Fatalf("Err summary wrong: %v", err)
	}
}

// panicFingerprint panics when the cache hashes it: a panic in
// RunCell's cache plumbing, outside the cell body's own recover.
type panicFingerprint struct{}

func (panicFingerprint) MarshalJSON() ([]byte, error) { panic("fingerprint exploded") }

func TestPanicOutsideCellBodyFailsCell(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cells := []Cell[int]{
		{Key: "ok", Fingerprint: "ok", Run: func() (int, error) { return 1, nil }},
		{Key: "boom", Fingerprint: panicFingerprint{}, Run: func() (int, error) { return 2, nil }},
	}
	res := Sweep(cells, Options{Workers: 2, Cache: cache})
	if res[0].Err != nil || res[0].Value != 1 {
		t.Fatalf("healthy cell disturbed: %+v", res[0])
	}
	if res[1].Key != "boom" || res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "fingerprint exploded") {
		t.Fatalf("panic outside the cell body was not reported as the cell's failure: %+v", res[1])
	}
}

func TestErrNilOnSuccess(t *testing.T) {
	if err := Err(Sweep(squareCells(3), Options{})); err != nil {
		t.Fatal(err)
	}
}

func TestFailedCellsKeepSweepRunning(t *testing.T) {
	var ran atomic.Int32
	cells := make([]Cell[int], 8)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("c%d", i),
			Run: func() (int, error) {
				ran.Add(1)
				if i%2 == 0 {
					return 0, fmt.Errorf("even cell fails")
				}
				return i, nil
			},
		}
	}
	res := Sweep(cells, Options{Workers: 3})
	if got := ran.Load(); got != 8 {
		t.Fatalf("sweep stopped early: %d of 8 cells ran", got)
	}
	if err := Err(res); err == nil || !strings.Contains(err.Error(), "4 of 8") {
		t.Fatalf("Err summary wrong: %v", err)
	}
}

func TestEmptySweep(t *testing.T) {
	res := Sweep[int](nil, Options{Workers: 4})
	if len(res) != 0 {
		t.Fatalf("expected no results, got %d", len(res))
	}
}

func TestProgressLines(t *testing.T) {
	var sb strings.Builder // only written under the progress mutex
	Sweep(squareCells(4), Options{Workers: 2, Progress: &sb, Label: "sweeptest"})
	out := sb.String()
	if strings.Count(out, "sweeptest: [") != 4 || !strings.Contains(out, "/4]") {
		t.Fatalf("progress output wrong:\n%s", out)
	}
}
