// Command bench is the simulator's performance harness: it runs
// fixed-seed b_eff and b_eff_io cells, measures the host-side cost of
// the simulation core (nanoseconds and heap allocations per simulated
// message, peak RSS), and gates them against the committed trajectory
// in BENCH_history.json, one entry per measured commit.
//
// Usage:
//
//	bench                                  # full cells, print per-cell lines
//	bench -quick -gate BENCH_history.json  # small cells, gated (CI smoke)
//	bench -gate BENCH_history.json -append BENCH_history.json -sha $(git rev-parse --short HEAD)
//	bench -cpuprofile cpu.out              # profile the cells
//
// An "op" is one simulated message through the full des+simnet+mpi
// stack; ns/op and allocs/op are therefore the per-message cost the
// ROADMAP's "as fast as the hardware allows" goal cares about. Each
// cell also records its headline benchmark value (b_eff in MB/s), so a
// perf regression that changes results is caught by the same gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/obs"
)

// CellResult is the measured cost of one benchmark cell.
type CellResult struct {
	Name       string  `json:"name"`
	Ops        int64   `json:"ops"`       // simulated messages
	WallSec    float64 `json:"wall_s"`    // best-of-iters wall clock
	NsPerOp    float64 `json:"ns_per_op"` // wall / messages
	AllocsPerA float64 `json:"allocs_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`  // heap bytes allocated / messages
	HeadlineMB float64 `json:"headline_mb_s"` // the cell's benchmark value, for result-drift detection

	// Dispatches counts the engine's run-queue pops and Resumes its
	// coroutine switches (des.Metrics). Both are deterministic; the
	// dispatch count is the schedule's size, gated exactly.
	Dispatches int64 `json:"dispatches,omitempty"`
	Resumes    int64 `json:"resumes,omitempty"`
}

// Report is one measured run: one entry of a History.
type Report struct {
	Generated string       `json:"generated"`
	GitSHA    string       `json:"git_sha,omitempty"` // commit the numbers were measured at (-sha)
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"num_cpu,omitempty"` // host cores: context for the walls
	Quick     bool         `json:"quick,omitempty"`
	PeakRSSKB int64        `json:"peak_rss_kb,omitempty"` // omitted where getrusage is unavailable
	Cells     []CellResult `json:"cells"`
}

// History is the schema of BENCH_history.json: one Report per
// measured commit, oldest first. -gate reads it and -append folds a
// gated run into it.
type History struct {
	Entries []Report `json:"entries"`
}

// loadHistory reads a bench history. A file without entries — which
// includes a bare single Report, the retired BENCH_core.json layout —
// is an error naming the file.
func loadHistory(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h History
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("%s: not a bench history: %w", path, err)
	}
	if len(h.Entries) == 0 {
		return nil, fmt.Errorf(`%s: no history entries (want {"entries": [...]}, one report per commit)`, path)
	}
	return h.Entries, nil
}

// cell is one fixed-seed workload with a way to count its messages. run
// attaches m to the world's engine.
type cell struct {
	name string
	run  func(m *des.Metrics) (ops int64, headlineMB float64, err error)
}

// attach makes w's engine count into m.
func attach(w *mpi.WorldConfig, m *des.Metrics) {
	w.Observe(mpi.Observer{OnEngine: func(e *des.Engine) { e.SetMetrics(m) }})
}

func cells(quick bool) []cell {
	beffCell := func(key string, procs, maxLoop int, skipAnalysis bool) cell {
		return cell{
			name: fmt.Sprintf("beff_%s_%d", key, procs),
			run: func(m *des.Metrics) (int64, float64, error) {
				p, err := machine.Lookup(key)
				if err != nil {
					return 0, 0, err
				}
				w, err := p.BuildWorld(procs)
				if err != nil {
					return 0, 0, err
				}
				attach(&w, m)
				res, err := core.Run(w, core.Options{
					MemoryPerProc: p.MemoryPerProc,
					Seed:          1,
					MaxLooplength: maxLoop,
					Reps:          1,
					SkipAnalysis:  skipAnalysis,
				})
				if err != nil {
					return 0, 0, err
				}
				return w.Net.Messages(), res.Beff / 1e6, nil
			},
		}
	}
	beffioCell := func(key string, procs int, t des.Duration) cell {
		return cell{
			name: fmt.Sprintf("beffio_%s_%d", key, procs),
			run: func(m *des.Metrics) (int64, float64, error) {
				p, err := machine.Lookup(key)
				if err != nil {
					return 0, 0, err
				}
				w, err := p.BuildIOWorld(procs)
				if err != nil {
					return 0, 0, err
				}
				attach(&w, m)
				fs, err := p.BuildFS()
				if err != nil {
					return 0, 0, err
				}
				res, err := beffio.Run(w, fs, beffio.Options{T: t, MPart: p.MPart()})
				if err != nil {
					return 0, 0, err
				}
				return w.Net.Messages(), res.BeffIO / 1e6, nil
			},
		}
	}
	if quick {
		return []cell{
			beffCell("t3e", 16, 2, true),
			beffioCell("t3e", 8, des.DurationOf(0.2)),
		}
	}
	return []cell{
		// The acceptance cell: 64 ranks on the torus machine, the
		// workload where slot scans, routing, and per-message
		// allocations dominate.
		beffCell("t3e", 64, 4, false),
		beffCell("cluster", 32, 4, true),
		beffioCell("t3e", 16, des.DurationOf(0.5)),
		// The -quick cells ride along so every full entry of the
		// history also carries the points the CI gate (bench -quick
		// -gate) compares against.
		beffCell("t3e", 16, 2, true),
		beffioCell("t3e", 8, des.DurationOf(0.2)),
	}
}

func measure(c cell, iters int) (CellResult, error) {
	out := CellResult{Name: c.name}
	for it := 0; it < iters; it++ {
		m := &des.Metrics{Dispatches: new(obs.Counter), Resumes: new(obs.Counter)}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		ops, headline, err := c.run(m)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return out, fmt.Errorf("cell %s: %w", c.name, err)
		}
		if ops <= 0 {
			return out, fmt.Errorf("cell %s: no messages simulated", c.name)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / float64(ops)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
		if it == 0 || wall < out.WallSec {
			out.WallSec = wall
			out.NsPerOp = wall * 1e9 / float64(ops)
		}
		if it == 0 || allocs < out.AllocsPerA {
			out.AllocsPerA = allocs
			out.BytesPerOp = bytes
		}
		out.Ops = ops
		out.HeadlineMB = headline
		out.Dispatches, out.Resumes = m.Dispatches.Value(), m.Resumes.Value()
	}
	return out, nil
}

func main() {
	c := cli.New("bench")
	c.ProfileFlags(nil)
	var (
		quick    = flag.Bool("quick", false, "small cells for CI smoke runs")
		iters    = flag.Int("iters", 3, "repetitions per cell (best wall time counts)")
		gate     = flag.String("gate", "", "regression gate: compare against this bench history and exit 1 on >10% wall or any allocs/op growth over the best point, >5% bytes/op growth over the latest point, any headline drift, or any change in dispatches")
		appendTo = flag.String("append", "", "fold this run into the bench history at this path (created if absent; skipped when the gate fails)")
		sha      = flag.String("sha", "", "git commit to record in the history entry")
		date     = flag.String("date", "", "timestamp to record as generated (default: current UTC time; pin it for deterministic history entries)")
	)
	flag.Parse()
	c.Validate()
	switch {
	case *iters < 1:
		c.UsageErr("-iters must be >= 1, got %d", *iters)
	}

	fatal := c.Fatal
	stopProf := c.StartProfiling()

	rep := Report{
		Generated: *date,
		GitSHA:    *sha,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     *quick,
	}
	if rep.Generated == "" {
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
	}
	for _, c := range cells(*quick) {
		r, err := measure(c, *iters)
		fatal(err)
		fmt.Printf("%-20s %10d ops  %8.1f ns/op  %6.2f allocs/op  %8.1f B/op  wall %6.3fs  headline %.2f MB/s  %d dispatches  %d resumes\n",
			r.Name, r.Ops, r.NsPerOp, r.AllocsPerA, r.BytesPerOp, r.WallSec, r.HeadlineMB, r.Dispatches, r.Resumes)
		rep.Cells = append(rep.Cells, r)
	}
	stopProf()
	rep.PeakRSSKB = peakRSSKB()
	if rep.PeakRSSKB > 0 {
		fmt.Printf("peak RSS %d kB\n", rep.PeakRSSKB)
	}

	var gateFailures []string
	if *gate != "" {
		hist, err := loadHistory(*gate)
		fatal(err)
		// Allocation counts are deterministic, so that half of the gate
		// is judged immediately. Wall clock is noisy even best-of-iters
		// on shared runners, so a cell failing only on wall is
		// re-measured up to two extra rounds (keeping the overall best)
		// before the verdict sticks: a real slowdown survives
		// re-measurement, scheduler noise rarely does.
		byName := map[string]cell{}
		for _, cl := range cells(*quick) {
			byName[cl.name] = cl
		}
		for round := 0; ; round++ {
			var suspects []string
			gateFailures, suspects = runGate(rep.Cells, hist)
			if len(suspects) == 0 || round == 2 {
				break
			}
			fmt.Printf("gate: re-measuring %d wall-suspect cell(s), round %d/2\n", len(suspects), round+1)
			for _, name := range suspects {
				r, err := measure(byName[name], *iters)
				fatal(err)
				for i := range rep.Cells {
					if rep.Cells[i].Name != name {
						continue
					}
					if r.WallSec < rep.Cells[i].WallSec {
						rep.Cells[i].WallSec = r.WallSec
						rep.Cells[i].NsPerOp = r.NsPerOp
					}
					if r.AllocsPerA < rep.Cells[i].AllocsPerA {
						rep.Cells[i].AllocsPerA = r.AllocsPerA
						rep.Cells[i].BytesPerOp = r.BytesPerOp
					}
				}
			}
		}
	}

	if *appendTo != "" {
		if len(gateFailures) > 0 {
			fmt.Fprintln(os.Stderr, "bench: -append skipped: the gate failed")
		} else {
			n, err := appendHistory(*appendTo, rep)
			fatal(err)
			fmt.Printf("appended to %s (%d entries)\n", *appendTo, n)
		}
	}
	if len(gateFailures) > 0 {
		for _, f := range gateFailures {
			fmt.Fprintf(os.Stderr, "bench: gate: %s\n", f)
		}
		os.Exit(1)
	}
}

// appendHistory folds rep into the history at path, creating the file
// if it is absent, and reports the new entry count.
func appendHistory(path string, rep Report) (int, error) {
	var entries []Report
	if _, err := os.Stat(path); err == nil {
		if entries, err = loadHistory(path); err != nil {
			return 0, err
		}
	}
	entries = append(entries, rep)
	data, err := json.MarshalIndent(History{Entries: entries}, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(entries), os.WriteFile(path, append(data, '\n'), 0o644)
}

// gateWallTolerance is the allowed relative wall-clock drift against
// the best recorded point before the gate fails the run.
const gateWallTolerance = 0.10

// gateBytesTolerance is the allowed relative growth of allocated bytes
// per op against the latest recorded point. Allocation counts alone
// miss a buffer that grows without allocating more often.
const gateBytesTolerance = 0.05

// headlineDrift reports whether a cell's benchmark value moved away
// from a recorded one. The simulation is deterministic, so any move
// beyond float round-off means the results changed. A zero recorded
// headline predates the field and is not compared.
func headlineDrift(cur, recorded float64) bool {
	return recorded != 0 && math.Abs(cur-recorded) > 1e-9*math.Abs(recorded)
}

// runGate compares fresh measurements against a bench history, cell by
// cell, and returns one message per violation:
//   - wall more than gateWallTolerance over the best (lowest) recorded
//     wall anywhere in the history, so the trajectory cannot decay one
//     tolerable step at a time;
//   - allocs/op over the best recorded point (the simulator is
//     deterministic, so allocation counts must not grow; a hair of
//     slack absorbs runtime-internal noise);
//   - bytes/op more than gateBytesTolerance over the latest entry that
//     has the cell;
//   - any headline drift against the latest entry or the best-wall
//     entry;
//   - any change in dispatches against the latest entry that records
//     them: the schedule is deterministic, so a moved count means the
//     engine pushes or pops differently.
//
// Cells whose offence is wall time are also returned as suspects, which
// the caller may re-measure before accepting the verdict. A cell no
// entry records is not compared. Large improvements pass but are
// called out on stdout so the history gets a new point.
func runGate(cells []CellResult, hist []Report) (failures, wallSuspects []string) {
	for _, cur := range cells {
		var best, latest, bestAllocs, sched CellResult
		var bestAt, latestAt, bestAllocsAt, schedAt string
		for _, h := range hist {
			for _, base := range h.Cells {
				if base.Name != cur.Name || base.WallSec <= 0 {
					continue
				}
				latest, latestAt = base, entryLabel(h)
				if base.Dispatches > 0 {
					sched, schedAt = base, latestAt
				}
				if best.WallSec == 0 || base.WallSec < best.WallSec {
					best, bestAt = base, latestAt
				}
				if base.AllocsPerA > 0 && (bestAllocs.AllocsPerA == 0 || base.AllocsPerA < bestAllocs.AllocsPerA) {
					bestAllocs, bestAllocsAt = base, latestAt
				}
			}
		}
		if best.WallSec == 0 {
			continue
		}
		if slow := cur.WallSec/best.WallSec - 1; slow > gateWallTolerance {
			failures = append(failures, fmt.Sprintf("%s: wall %.3fs is %.0f%% over the best recorded %.3fs (%s)",
				cur.Name, cur.WallSec, slow*100, best.WallSec, bestAt))
			wallSuspects = append(wallSuspects, cur.Name)
		}
		if fast := 1 - cur.WallSec/latest.WallSec; fast > gateWallTolerance {
			fmt.Printf("%-20s gate: %.0f%% faster than the latest entry (%s) — append this run to the history to keep it honest\n",
				cur.Name, fast*100, latestAt)
		}
		if bestAllocs.AllocsPerA > 0 && cur.AllocsPerA > bestAllocs.AllocsPerA+1e-3 {
			failures = append(failures, fmt.Sprintf("%s: %.4f allocs/op, best recorded %.4f (%s; allocation growth is gated at zero)",
				cur.Name, cur.AllocsPerA, bestAllocs.AllocsPerA, bestAllocsAt))
		}
		if latest.BytesPerOp > 0 && cur.BytesPerOp > latest.BytesPerOp*(1+gateBytesTolerance) {
			failures = append(failures, fmt.Sprintf("%s: %.1f B/op is %.0f%% over the latest %.1f (%s)",
				cur.Name, cur.BytesPerOp, (cur.BytesPerOp/latest.BytesPerOp-1)*100, latest.BytesPerOp, latestAt))
		}
		if headlineDrift(cur.HeadlineMB, latest.HeadlineMB) {
			failures = append(failures, fmt.Sprintf("%s: headline %v MB/s, latest entry has %v (%s; results changed)",
				cur.Name, cur.HeadlineMB, latest.HeadlineMB, latestAt))
		}
		if best.HeadlineMB != latest.HeadlineMB && headlineDrift(cur.HeadlineMB, best.HeadlineMB) {
			failures = append(failures, fmt.Sprintf("%s: headline %v MB/s, best-wall entry has %v (%s; results changed)",
				cur.Name, cur.HeadlineMB, best.HeadlineMB, bestAt))
		}
		if sched.Dispatches > 0 && cur.Dispatches != sched.Dispatches {
			failures = append(failures, fmt.Sprintf("%s: %d dispatches, %s recorded %d (the schedule changed)",
				cur.Name, cur.Dispatches, schedAt, sched.Dispatches))
		}
	}
	return failures, wallSuspects
}

// entryLabel names a history entry in diagnostics: its commit when
// recorded, its timestamp otherwise.
func entryLabel(h Report) string {
	if h.GitSHA != "" {
		return h.GitSHA
	}
	if h.Generated != "" {
		return h.Generated
	}
	return "unlabeled entry"
}
