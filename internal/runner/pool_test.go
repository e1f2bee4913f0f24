package runner

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/hpcbench/beff/internal/obs"
)

// blockingTask returns a task that blocks until release is closed,
// then returns value. The started channel fires when a worker picks
// the task up.
func blockingTask(key, hash string, started chan<- struct{}, release <-chan struct{}, value string) Task {
	return Task{
		Key:  key,
		Hash: hash,
		Run: func() (json.RawMessage, bool, error) {
			if started != nil {
				close(started)
			}
			<-release
			return json.RawMessage(value), false, nil
		},
	}
}

func instantTask(key, hash, value string) Task {
	return Task{Key: key, Hash: hash, Run: func() (json.RawMessage, bool, error) {
		return json.RawMessage(value), false, nil
	}}
}

func waitDone(t *testing.T, h *Handle) {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("handle %q never finished", h.Key())
	}
}

// TestPoolDedupe pins the in-flight dedupe contract: a submission
// whose hash matches a queued-or-running execution attaches to it,
// both handles observe the same result, and only one execution runs.
func TestPoolDedupe(t *testing.T) {
	reg := obs.New()
	m := &Metrics{
		QueueDepth: reg.Gauge("q"), InFlight: reg.Gauge("f"),
		DedupeHits: reg.Counter("d"), Done: reg.Counter("t"),
		Failed: reg.Counter("e"), CacheHits: reg.Counter("c"),
	}
	p := NewPool(1, m)
	defer p.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	runs := 0
	h1, err := p.Submit(Task{Key: "cell", Hash: "h1", Run: func() (json.RawMessage, bool, error) {
		runs++
		close(started)
		<-release
		return json.RawMessage(`"v"`), false, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the execution is running, hence in the inflight table

	h2, err := p.Submit(instantTask("cell", "h1", `"other"`))
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Deduped() {
		t.Fatal("second submission with the same hash did not dedupe")
	}
	if h1.Deduped() {
		t.Fatal("first submission reported deduped")
	}
	close(release)
	waitDone(t, h1)
	waitDone(t, h2)
	for _, h := range []*Handle{h1, h2} {
		v, _, _, err := h.Result()
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		if string(v) != `"v"` {
			t.Fatalf("result %q, want the first execution's value", v)
		}
	}
	if runs != 1 {
		t.Fatalf("execution ran %d times, want 1", runs)
	}
	if got, _ := reg.Snapshot().Get("d"); got.Value != 1 {
		t.Fatalf("dedupe hits %v, want 1", got.Value)
	}
	if got, _ := reg.Snapshot().Get("t"); got.Value != 1 {
		t.Fatalf("tasks done %v, want 1", got.Value)
	}
}

// TestPoolCancelQueued pins cancellation: a queued task cancels (and
// leaves the queue), a running task does not.
func TestPoolCancelQueued(t *testing.T) {
	p := NewPool(1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	running, err := p.Submit(blockingTask("running", "", started, release, `1`))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := p.Submit(instantTask("queued", "hq", `2`))
	if err != nil {
		t.Fatal(err)
	}

	if running.Cancel() {
		t.Fatal("cancelled a running task")
	}
	if !queued.Cancel() {
		t.Fatal("failed to cancel a queued task")
	}
	if got := queued.State(); got != TaskCanceled {
		t.Fatalf("state %v after cancel, want canceled", got)
	}
	waitDone(t, queued) // Done closes on cancel
	if _, _, _, err := queued.Result(); !errors.Is(err, ErrTaskCanceled) {
		t.Fatalf("result error %v, want ErrTaskCanceled", err)
	}
	if d := p.Depth(); d != 0 {
		t.Fatalf("queue depth %d after cancel, want 0", d)
	}

	// The cancelled hash must leave the inflight table so a fresh
	// submission runs rather than attaching to a dead execution.
	fresh, err := p.Submit(instantTask("queued", "hq", `3`))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Deduped() {
		t.Fatal("fresh submission attached to a cancelled execution")
	}
	close(release)
	waitDone(t, fresh)
	if v, _, _, _ := fresh.Result(); string(v) != `3` {
		t.Fatalf("fresh result %q, want 3", v)
	}
	p.Close()
}

// TestPoolCancelDedupedWaiter: cancelling one deduped attachment
// detaches it without cancelling the execution the other handle waits
// on; cancelling the *last* waiter of a queued execution cancels the
// execution itself.
func TestPoolCancelDedupedWaiter(t *testing.T) {
	p := NewPool(1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := p.Submit(blockingTask("blocker", "", started, release, `0`)); err != nil {
		t.Fatal(err)
	}
	<-started

	h1, _ := p.Submit(instantTask("cell", "h", `"v"`))
	h2, _ := p.Submit(instantTask("cell", "h", `"v"`))
	if !h2.Deduped() {
		t.Fatal("second submission did not dedupe")
	}
	if !h2.Cancel() {
		t.Fatal("failed to cancel a deduped attachment")
	}
	if h1.State() != TaskQueued {
		t.Fatalf("execution state %v after one waiter left, want queued", h1.State())
	}
	if !h1.Cancel() {
		t.Fatal("failed to cancel the last waiter")
	}
	if d := p.Depth(); d != 0 {
		t.Fatalf("queue depth %d after last waiter cancelled, want 0", d)
	}
	close(release)
	p.Close()
}

// TestPoolCloseDrains pins the drain contract: Close finishes every
// admitted task — queued and running — and Submit afterwards reports
// ErrPoolClosed.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2, nil)
	var handles []*Handle
	for i := 0; i < 8; i++ {
		h, err := p.Submit(instantTask("cell", "", `"x"`))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	p.Close()
	for _, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatal("Close returned before an admitted task finished")
		}
		if v, _, _, err := h.Result(); err != nil || string(v) != `"x"` {
			t.Fatalf("drained result %q/%v, want \"x\"/nil", v, err)
		}
	}
	if _, err := p.Submit(instantTask("late", "", `1`)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close: %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolPanicIsolation: a panicking task becomes a failed result,
// not a dead worker.
func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	bad, err := p.Submit(Task{Key: "boom", Run: func() (json.RawMessage, bool, error) {
		panic("kaboom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad)
	if _, _, _, err := bad.Result(); err == nil {
		t.Fatal("panicking task reported no error")
	}
	// The worker must still be alive to run the next task.
	ok, err := p.Submit(instantTask("after", "", `"ok"`))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ok)
	if v, _, _, err := ok.Result(); err != nil || string(v) != `"ok"` {
		t.Fatalf("task after panic: %q/%v", v, err)
	}
}
