package beff_test

// Integration tests for the observability layer and the multi-
// subscriber Observer API: every subscriber kind — obs instruments,
// fault injection, tracing, invariant checking, and the deprecated
// single-callback fields — attaches to one run at the same time, and
// none of them moves a single result byte.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/hpcbench/beff"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/trace"
)

// TestObserversAttachSimultaneously is the acceptance test for the
// Observer API redesign: trace, perturbation, invariant checking, obs
// instruments, and two independent ad-hoc observers all watch one
// b_eff run at once — no chaining, no ordering constraints — and each
// of them sees the full event stream.
func TestObserversAttachSimultaneously(t *testing.T) {
	p, err := beff.LookupMachine("t3e")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.BuildWorld(8)
	if err != nil {
		t.Fatal(err)
	}

	// Subscriber 1: obs instruments, streaming to a -metrics file.
	c := cli.New("test")
	c.MetricsPath = filepath.Join(t.TempDir(), "metrics.ndjson")
	o := c.StartObs()
	o.InstrumentWorld(&w)
	o.InstrumentNet(w.Net)

	// Subscriber 2: fault injection.
	pr, err := perturb.Load("stormy")
	if err != nil {
		t.Fatal(err)
	}
	pr.ApplyNet(w.Net, 1)

	// Subscriber 3: a trace collector.
	col := trace.New()
	w.Net.Observe(col.OnTransfer)

	// Subscriber 4: the invariant checker.
	chk := check.New()
	chk.WatchWorld(&w)
	chk.WatchNet(w.Net)

	// Subscriber 5: an ad-hoc observer through the new API.
	var obsSends, obsAdvances atomic.Int64
	w.Observe(mpi.Observer{
		OnSend: func(src, dst int, size int64, at des.Time) { obsSends.Add(1) },
		OnEngine: func(e *des.Engine) {
			e.OnAdvance(func(from, to des.Time) { obsAdvances.Add(1) })
		},
	})

	// Subscriber 6: a second independent ad-hoc observer — composition
	// must keep feeding every subscriber alongside all of the above.
	var extraSends, extraMatches, extraAdvances, extraTransfers atomic.Int64
	w.Observe(mpi.Observer{
		OnSend:  func(src, dst int, size int64, at des.Time) { extraSends.Add(1) },
		OnMatch: func(src, dst int, size int64, at des.Time) { extraMatches.Add(1) },
		OnEngine: func(e *des.Engine) {
			e.OnAdvance(func(from, to des.Time) { extraAdvances.Add(1) })
		},
	})
	w.Net.Observe(func(src, dst int, size int64, start, end des.Time) { extraTransfers.Add(1) })

	res, err := runCore(w)
	if err != nil {
		t.Fatal(err)
	}
	chk.VerifyBeff(res)
	if err := chk.Finish(); err != nil {
		t.Fatalf("invariants violated with every subscriber attached: %v", err)
	}
	o.Close()

	snap := o.Reg.Snapshot()
	sends, _ := snap.Get("mpi_eager_messages_total")
	rdv, _ := snap.Get("mpi_rendezvous_messages_total")
	transfers, _ := snap.Get("simnet_transfers_total")
	dispatches, _ := snap.Get("des_dispatches_total")
	sum := col.Summarize()

	if extraSends.Load() == 0 || extraMatches.Load() == 0 || extraAdvances.Load() == 0 || extraTransfers.Load() == 0 {
		t.Fatalf("a second observer saw nothing: sends %d, matches %d, advances %d, transfers %d",
			extraSends.Load(), extraMatches.Load(), extraAdvances.Load(), extraTransfers.Load())
	}
	if got := int64(sends.Value + rdv.Value); got != extraSends.Load() || got != obsSends.Load() {
		t.Fatalf("send streams disagree: metrics %d, second observer %d, first observer %d",
			got, extraSends.Load(), obsSends.Load())
	}
	if int64(transfers.Value) != extraTransfers.Load() {
		t.Fatalf("transfer streams disagree: metrics %.0f, observer %d", transfers.Value, extraTransfers.Load())
	}
	if int64(sum.Messages) != extraTransfers.Load() {
		t.Fatalf("trace collector saw %d messages, observer hook %d", sum.Messages, extraTransfers.Load())
	}
	if dispatches.Value == 0 || obsAdvances.Load() == 0 {
		t.Fatalf("scheduler stream missing: %v dispatches, %d observed advances", dispatches.Value, obsAdvances.Load())
	}

	// The -metrics stream must be valid NDJSON.
	data, err := os.ReadFile(c.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("metrics stream is empty")
	}
	for i, line := range lines {
		var s obs.Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("metrics line %d is not valid JSON: %v", i, err)
		}
	}
}

// TestObservabilityIsByteInvisible pins the core obs guarantee: a run
// with the full observer stack attached produces a byte-identical
// result protocol to a bare run of the same cell.
func TestObservabilityIsByteInvisible(t *testing.T) {
	run := func(instrument bool) []byte {
		t.Helper()
		p, err := beff.LookupMachine("t3e")
		if err != nil {
			t.Fatal(err)
		}
		w, err := p.BuildWorld(8)
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			o := cli.NewObs(obs.New())
			o.InstrumentWorld(&w)
			o.InstrumentNet(w.Net)
			col := trace.New()
			w.Net.Observe(col.OnTransfer)
			w.Observe(mpi.Observer{OnSend: func(src, dst int, size int64, at des.Time) {}})
			w.Net.Observe(func(src, dst int, size int64, start, end des.Time) {})
		}
		res, err := runCore(w)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bare, observed := run(false), run(true)
	if !bytes.Equal(bare, observed) {
		t.Fatalf("observability moved the results: bare %d bytes, observed %d bytes", len(bare), len(observed))
	}
}

// BenchmarkObsOverheadT3E64 measures the acceptance cell — 64 ranks on
// the torus machine — with the registry disabled (nil metrics, the
// shipping default) and enabled, so `go test -bench ObsOverhead` shows
// the cost of the instrumentation branch and of the live counters:
//
//	go test -bench ObsOverheadT3E64 -benchtime 3x
//
// The disabled variant must track the plain cell within noise (the
// ≤ 2% acceptance bound is enforced by comparing BENCH_history.json
// entries across commits, not here — benchmarks report, they do not
// fail).
func BenchmarkObsOverheadT3E64(b *testing.B) {
	p, err := beff.LookupMachine("t3e")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := p.BuildWorld(64)
				if err != nil {
					b.Fatal(err)
				}
				if mode.enabled {
					o := cli.NewObs(obs.New())
					o.InstrumentWorld(&w)
					o.InstrumentNet(w.Net)
				}
				if _, err := runCore(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
