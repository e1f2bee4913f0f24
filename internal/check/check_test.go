package check_test

import (
	"strings"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/simfs"
)

// wants asserts that the checker recorded at least one violation of the
// named invariant.
func wants(t *testing.T, c *check.Checker, invariant string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %q violation recorded; have %v", invariant, c.Violations())
}

// clean asserts the checker found nothing wrong.
func clean(t *testing.T, c *check.Checker) {
	t.Helper()
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}

func clusterWorld(t *testing.T, procs int) mpi.WorldConfig {
	t.Helper()
	p, err := machine.Lookup("cluster")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.BuildWorld(procs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func clusterIOWorld(t *testing.T, procs int) (mpi.WorldConfig, *simfs.FS) {
	t.Helper()
	p, err := machine.Lookup("cluster")
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.BuildIOWorld(procs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := p.BuildFS()
	if err != nil {
		t.Fatal(err)
	}
	return w, fs
}

// ---------------------------------------------------------------------
// Clean end-to-end runs: every watch installed, zero violations.

func TestCleanBeffRun(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 4)
	c.WatchWorld(&w)
	c.WatchNet(w.Net)
	res, err := core.Run(w, core.Options{
		LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, SkipAnalysis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.VerifyBeff(res)
	clean(t, c)
}

func TestCleanBeffIORun(t *testing.T) {
	c := check.New()
	w, fs := clusterIOWorld(t, 4)
	c.WatchWorld(&w)
	c.WatchNet(w.Net)
	c.WatchFS(fs)
	res, err := beffio.Run(w, fs, beffio.Options{T: des.DurationOf(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	c.VerifyBeffIO(res)
	clean(t, c)
}

// TestBeffAnalysisCompletes runs b_eff with the analysis patterns on,
// under every watch, at sizes whose half is odd, on one profile of each
// fabric family. There a bisection pairing that is not an involution
// leaves a rank waiting for a partner that exchanges with another: a
// deadlock.
func TestBeffAnalysisCompletes(t *testing.T) {
	profiles := []string{
		"sr2201",    // crossbar
		"sp",        // SMP cluster
		"t3e",       // 3-D torus
		"myrinet",   // fat tree
		"dragonfly", // dragonfly
	}
	for _, key := range profiles {
		p, err := machine.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{6, 7, 10, 11, 14, 15} {
			w, err := p.BuildWorld(procs)
			if err != nil {
				t.Fatal(err)
			}
			c := check.New()
			c.WatchWorld(&w)
			c.WatchNet(w.Net)
			res, err := core.Run(w, core.Options{
				MemoryPerProc: p.MemoryPerProc, LmaxOverride: 1 << 16, MaxLooplength: 1, Reps: 1,
			})
			if err != nil {
				t.Fatalf("%s at %d processes: %v", key, procs, err)
			}
			if len(res.Analysis) == 0 {
				t.Fatalf("%s at %d processes: no analysis entries", key, procs)
			}
			c.VerifyBeff(res)
			if err := c.Finish(); err != nil {
				t.Fatalf("%s at %d processes: %v", key, procs, err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Deliberate violations: each checker must fire on bad input.

func TestNetWatchCausality(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	nw := c.WatchNet(w.Net)
	nw.ObserveTransfer(0, 1, 10, 100, 50) // arrives before injection
	wants(t, c, "net/causality")
}

func TestNetWatchNegativeSize(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	nw := c.WatchNet(w.Net)
	nw.ObserveTransfer(0, 1, -5, 0, 10)
	wants(t, c, "net/transfer-size")
}

func TestNetWatchEndpoints(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	nw := c.WatchNet(w.Net)
	nw.ObserveTransfer(0, 99, 10, 0, 10)
	wants(t, c, "net/endpoints")
}

func TestNetWatchConservation(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	nw := c.WatchNet(w.Net)
	// A fabricated transfer the fabric never accounted for must break
	// the ledger cross-check.
	nw.ObserveTransfer(0, 1, 1024, 0, 10)
	if err := c.Finish(); err == nil {
		t.Fatal("Finish accepted an unbacked transfer")
	}
	wants(t, c, "net/byte-conservation")
}

func TestWorldWatchConservation(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	ww := c.WatchWorld(&w)
	ww.ObserveSend(0, 1, 100, 0) // sent but never received
	if err := c.Finish(); err == nil {
		t.Fatal("Finish accepted a lost message")
	}
	wants(t, c, "mpi/byte-conservation")
}

func TestWorldWatchUnmatchedMessageEndToEnd(t *testing.T) {
	// A rank that sends a message nobody ever receives is a real
	// conservation breach the ledger must catch from the hooks alone.
	c := check.New()
	w := clusterWorld(t, 2)
	c.WatchWorld(&w)
	err := mpi.Run(w, func(cm *mpi.Comm) {
		if cm.Rank() == 0 {
			cm.Wait(cm.IsendBytes(1, 7, 64)) // eager: completes without a receive
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err == nil {
		t.Fatal("Finish accepted an unmatched message")
	}
	wants(t, c, "mpi/byte-conservation")
}

func TestWorldWatchClockMonotone(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	ww := c.WatchWorld(&w)
	ww.ObserveClock(10, 5)
	wants(t, c, "des/clock-monotone")
}

func TestWorldWatchMessageSize(t *testing.T) {
	c := check.New()
	w := clusterWorld(t, 2)
	ww := c.WatchWorld(&w)
	ww.ObserveSend(0, 1, -1, 0)
	ww.ObserveMatch(0, 1, -1, 0)
	wants(t, c, "mpi/message-size")
}

func TestFSWatchViolations(t *testing.T) {
	c := check.New()
	_, fs := clusterIOWorld(t, 2)
	fw := c.WatchFS(fs)
	fw.ObserveServerOp(0, true, -3, 0, 10)
	wants(t, c, "fs/op-size")
	fw.ObserveServerOp(0, false, 10, 20, 5)
	wants(t, c, "fs/causality")
	fw.ObserveServerOp(-1, true, 10, 0, 10)
	wants(t, c, "fs/server-id")
}

func TestFSWatchWriteConservation(t *testing.T) {
	c := check.New()
	_, fs := clusterIOWorld(t, 2)
	fw := c.WatchFS(fs)
	// A disk write the filesystem never accepted from a client.
	fw.ObserveServerOp(0, true, 4096, 0, 10)
	if err := c.Finish(); err == nil {
		t.Fatal("Finish accepted an unbacked disk write")
	}
	wants(t, c, "fs/write-conservation")
}

func TestFSWatchReadConservation(t *testing.T) {
	c := check.New()
	_, fs := clusterIOWorld(t, 2)
	fw := c.WatchFS(fs)
	fw.ObserveServerOp(0, false, 4096, 0, 10) // disks read more than clients asked
	if err := c.Finish(); err == nil {
		t.Fatal("Finish accepted an unbacked disk read")
	}
	wants(t, c, "fs/read-conservation")
}

// ---------------------------------------------------------------------
// Result audits fire on corrupted protocols.

func smallBeff(t *testing.T) *core.Result {
	t.Helper()
	res, err := core.Run(clusterWorld(t, 4), core.Options{
		LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, SkipAnalysis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyBeffReduction(t *testing.T) {
	res := smallBeff(t)
	res.Beff *= 2
	c := check.New()
	c.VerifyBeff(res)
	wants(t, c, "beff/reduction")
}

func TestVerifyBeffBandwidthRange(t *testing.T) {
	res := smallBeff(t)
	res.Ring[0].ByMethod[0][0] = -1
	c := check.New()
	c.VerifyBeff(res)
	wants(t, c, "beff/bandwidth-range")
}

func TestVerifyBeffSizes(t *testing.T) {
	res := smallBeff(t)
	res.Sizes[0], res.Sizes[1] = res.Sizes[1], res.Sizes[0] // not nondecreasing
	c := check.New()
	c.VerifyBeff(res)
	wants(t, c, "beff/sizes")
}

func smallBeffIO(t *testing.T) *beffio.Result {
	t.Helper()
	w, fs := clusterIOWorld(t, 2)
	res, err := beffio.Run(w, fs, beffio.Options{T: des.DurationOf(0.25)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyBeffIOReduction(t *testing.T) {
	res := smallBeffIO(t)
	res.BeffIO *= 2
	c := check.New()
	c.VerifyBeffIO(res)
	wants(t, c, "beffio/reduction")
}

func TestVerifyBeffIOByteAccounting(t *testing.T) {
	res := smallBeffIO(t)
	res.TotalBytes++
	c := check.New()
	c.VerifyBeffIO(res)
	wants(t, c, "beffio/byte-accounting")
}

func TestVerifyPatternTableQuota(t *testing.T) {
	pats := beffio.Table2(2 << 20)
	pats[1].U++ // ΣU = 65
	c := check.New()
	c.VerifyPatternTable(pats)
	wants(t, c, "beffio/time-quota")

	c = check.New()
	c.VerifyPatternTable(pats[:40])
	wants(t, c, "beffio/pattern-table")
}

func TestVerifyRobustness(t *testing.T) {
	rob := runner.SummarizeReps([]float64{1e6, 2e6, 3e6})
	c := check.New()
	c.VerifyRobustness(rob)
	clean(t, c)

	rob.MaxOverReps = 5e6
	c = check.New()
	c.VerifyRobustness(rob)
	wants(t, c, "robust/summary")
}

func TestCheckerErrFormat(t *testing.T) {
	c := check.New()
	c.Reportf("demo/invariant", "value %d out of range", 7)
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "demo/invariant: value 7 out of range") {
		t.Fatalf("err = %v", err)
	}
}
