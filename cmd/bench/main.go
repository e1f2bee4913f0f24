// Command bench is the simulator's performance harness: it runs
// fixed-seed b_eff and b_eff_io cells, measures the host-side cost of
// the simulation core (nanoseconds and heap allocations per simulated
// message, peak RSS), and writes the numbers as JSON so the perf
// trajectory of the hot paths is tracked in-repo from PR to PR.
//
// Usage:
//
//	bench                         # full cells, write BENCH_core.json
//	bench -quick                  # small cells, CI smoke
//	bench -baseline old.json      # embed old numbers (report or history) and report speedups
//	bench -cpuprofile cpu.out     # profile the cells
//
// An "op" is one simulated message through the full des+simnet+mpi
// stack; ns/op and allocs/op are therefore the per-message cost the
// ROADMAP's "as fast as the hardware allows" goal cares about. Each
// cell also records its headline benchmark value (b_eff in MB/s), so a
// perf regression that changes results is caught by the same file.
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
}

// Report is the schema of BENCH_core.json, and of one entry in a
// BENCH_*.json history (see History).
type Report struct {
	Generated string                `json:"generated"`
	GitSHA    string                `json:"git_sha,omitempty"` // commit the numbers were measured at (-sha)
	GoVersion string                `json:"go_version"`
	NumCPU    int                   `json:"num_cpu,omitempty"` // host cores: context for the walls
	Quick     bool                  `json:"quick,omitempty"`
	PeakRSSKB int64                 `json:"peak_rss_kb,omitempty"` // omitted where getrusage is unavailable
	Cells     []CellResult          `json:"cells"`
	Baseline  []CellResult          `json:"baseline,omitempty"`
	BaseRSSKB int64                 `json:"baseline_peak_rss_kb,omitempty"`
	Speedups  map[string]SpeedupRow `json:"speedups,omitempty"`
}

// SpeedupRow compares one cell against the baseline run.
type SpeedupRow struct {
	Wall   float64 `json:"wall"`   // baseline wall / current wall
	Allocs float64 `json:"allocs"` // baseline allocs/op / current allocs/op
}

// History is the multi-point trajectory schema: one Report per
// measured commit, oldest first. bench -append folds a gated run into
// it; -gate and -trend read either this shape or a bare single Report
// (the legacy BENCH_core.json layout).
type History struct {
	Entries []Report `json:"entries"`
}

// loadHistory reads a bench JSON file in either format: a History
// document (entries non-empty) or a legacy single Report, which loads
// as a one-entry history.
func loadHistory(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h History
	if err := json.Unmarshal(data, &h); err == nil && len(h.Entries) > 0 {
		return h.Entries, nil
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: neither a bench history nor a bench report: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return nil, fmt.Errorf("%s: no cells (empty history?)", path)
	}
	return []Report{r}, nil
}

// cell is one fixed-seed workload with a way to count its messages.
type cell struct {
	name string
	run  func() (ops int64, headlineMB float64, err error)
}

func cells(quick bool) []cell {
	beffCell := func(key string, procs, maxLoop int, skipAnalysis bool) cell {
		return cell{
			name: fmt.Sprintf("beff_%s_%d", key, procs),
			run: func() (int64, float64, error) {
				p, err := machine.Lookup(key)
				if err != nil {
					return 0, 0, err
				}
				w, err := p.BuildWorld(procs)
				if err != nil {
					return 0, 0, err
				}
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
			run: func() (int64, float64, error) {
				p, err := machine.Lookup(key)
				if err != nil {
					return 0, 0, err
				}
				w, err := p.BuildIOWorld(procs)
				if err != nil {
					return 0, 0, err
				}
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
		// The -quick cells ride along so the CI gate (bench -quick
		// -gate) always finds its baselines in the committed report.
		beffCell("t3e", 16, 2, true),
		beffioCell("t3e", 8, des.DurationOf(0.2)),
	}
}

func measure(c cell, iters int) (CellResult, error) {
	out := CellResult{Name: c.name}
	for it := 0; it < iters; it++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		ops, headline, err := c.run()
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
	}
	return out, nil
}

func main() {
	c := cli.New("bench")
	c.ProfileFlags(nil)
	var (
		quick    = flag.Bool("quick", false, "small cells for CI smoke runs")
		iters    = flag.Int("iters", 3, "repetitions per cell (best wall time counts)")
		out      = flag.String("o", "BENCH_core.json", "output JSON path ('-' for stdout only)")
		baseline = flag.String("baseline", "", "prior bench JSON to embed and compute speedups against (single report or history; latest entry counts)")
		gate     = flag.String("gate", "", "regression gate: compare against this committed bench JSON (single report or history; latest entry counts) and exit 1 on >10% wall slowdown, any allocs/op increase or any headline drift")
		trend    = flag.String("trend", "", "trajectory gate: compare against the best historical point per cell in this bench history JSON and exit 1 on regression")
		appendTo = flag.String("append", "", "fold this run into the bench history JSON at this path (created if absent; skipped when a gate fails)")
		sha      = flag.String("sha", "", "git commit to record in the report, for history entries")
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
		fmt.Printf("%-20s %10d ops  %8.1f ns/op  %6.2f allocs/op  %8.1f B/op  wall %6.3fs  headline %.2f MB/s\n",
			r.Name, r.Ops, r.NsPerOp, r.AllocsPerA, r.BytesPerOp, r.WallSec, r.HeadlineMB)
		rep.Cells = append(rep.Cells, r)
	}
	stopProf()
	rep.PeakRSSKB = peakRSSKB()

	if *baseline != "" {
		fatal(applyBaseline(&rep, *baseline))
	}

	var gateFailures []string
	if *gate != "" || *trend != "" {
		var gateEntries, trendEntries []Report
		if *gate != "" {
			entries, err := loadHistory(*gate)
			fatal(err)
			gateEntries = entries
		}
		if *trend != "" {
			entries, err := loadHistory(*trend)
			fatal(err)
			trendEntries = entries
		}
		evaluate := func() (failures, suspects []string) {
			if len(gateEntries) > 0 {
				f, s := runGate(&rep, gateEntries[len(gateEntries)-1].Cells)
				failures, suspects = append(failures, f...), append(suspects, s...)
			}
			if len(trendEntries) > 0 {
				f, s := runTrend(&rep, trendEntries)
				failures, suspects = append(failures, f...), append(suspects, s...)
			}
			return failures, suspects
		}
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
			gateFailures, suspects = evaluate()
			if len(suspects) == 0 || round == 2 {
				break
			}
			seen := map[string]bool{}
			fmt.Printf("gate: re-measuring %d wall-suspect cell(s), round %d/2\n", len(suspects), round+1)
			for _, name := range suspects {
				cl, ok := byName[name]
				if !ok || seen[name] {
					continue
				}
				seen[name] = true
				r, err := measure(cl, *iters)
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
			fmt.Fprintln(os.Stderr, "bench: -append skipped: a gate failed")
		} else {
			// The history entry is the measurement alone — embedded
			// baselines and speedup tables are per-run context that would
			// bloat a committed trajectory.
			entry := rep
			entry.Baseline, entry.BaseRSSKB, entry.Speedups = nil, 0, nil
			var entries []Report
			if _, err := os.Stat(*appendTo); err == nil {
				entries, err = loadHistory(*appendTo)
				fatal(err)
			}
			entries = append(entries, entry)
			hdata, err := json.MarshalIndent(History{Entries: entries}, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*appendTo, append(hdata, '\n'), 0o644))
			fmt.Printf("appended to %s (%d entries)\n", *appendTo, len(entries))
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		fatal(os.WriteFile(*out, data, 0o644))
		if rep.PeakRSSKB > 0 {
			fmt.Printf("wrote %s (peak RSS %d kB)\n", *out, rep.PeakRSSKB)
		} else {
			fmt.Printf("wrote %s\n", *out)
		}
	}
	if len(gateFailures) > 0 {
		for _, f := range gateFailures {
			fmt.Fprintf(os.Stderr, "bench: gate: %s\n", f)
		}
		os.Exit(1)
	}
}

// gateWallTolerance is the allowed relative wall-clock drift against
// the committed report before the gate fails the run.
const gateWallTolerance = 0.10

// applyBaseline embeds the latest entry of the bench JSON at path (a
// single report or a history) into rep and prints the per-cell
// speedups against it.
func applyBaseline(rep *Report, path string) error {
	entries, err := loadHistory(path)
	if err != nil {
		return err
	}
	base := entries[len(entries)-1]
	rep.Baseline = base.Cells
	rep.BaseRSSKB = base.PeakRSSKB
	rep.Speedups = map[string]SpeedupRow{}
	for _, b := range base.Cells {
		for _, c := range rep.Cells {
			if c.Name == b.Name && c.WallSec > 0 && c.AllocsPerA > 0 {
				row := SpeedupRow{
					Wall:   b.WallSec / c.WallSec,
					Allocs: b.AllocsPerA / c.AllocsPerA,
				}
				rep.Speedups[c.Name] = row
				fmt.Printf("%-20s speedup: %.2fx wall, %.2fx allocs/op\n", c.Name, row.Wall, row.Allocs)
			}
		}
	}
	return nil
}

// headlineDrift reports whether a cell's benchmark value moved away
// from a recorded one. The simulation is deterministic, so any move
// beyond float round-off means the results changed. A zero recorded
// headline predates the field and is not compared.
func headlineDrift(cur, recorded float64) bool {
	return recorded != 0 && math.Abs(cur-recorded) > 1e-9*math.Abs(recorded)
}

// runGate compares the fresh measurements against the committed cells
// and returns one message per violation — a wall slowdown beyond the
// tolerance, any allocs/op growth (the simulator is deterministic,
// so allocation counts must not drift at all; a hair of slack absorbs
// runtime-internal noise), or any headline drift — plus the names of
// cells whose only offence is wall time, which the caller may
// re-measure before accepting the verdict. Large improvements pass but
// are called out on stdout so the committed file gets regenerated. The
// deltas are recorded in the report (Baseline/Speedups), which CI
// uploads as the artifact.
func runGate(rep *Report, committed []CellResult) (failures, wallSuspects []string) {
	rep.Baseline = committed
	rep.Speedups = map[string]SpeedupRow{}
	for _, cur := range rep.Cells {
		for _, base := range committed {
			if base.Name != cur.Name || base.WallSec <= 0 {
				continue
			}
			row := SpeedupRow{Wall: base.WallSec / cur.WallSec, Allocs: 0}
			if cur.AllocsPerA > 0 {
				row.Allocs = base.AllocsPerA / cur.AllocsPerA
			}
			rep.Speedups[cur.Name] = row
			slow := cur.WallSec/base.WallSec - 1
			switch {
			case slow > gateWallTolerance:
				failures = append(failures, fmt.Sprintf("%s: wall %.3fs is %.0f%% over the committed %.3fs",
					cur.Name, cur.WallSec, slow*100, base.WallSec))
				wallSuspects = append(wallSuspects, cur.Name)
			case slow < -gateWallTolerance:
				fmt.Printf("%-20s gate: %.0f%% faster than the committed report — regenerate BENCH_core.json to keep it honest\n",
					cur.Name, -slow*100)
			}
			if cur.AllocsPerA > base.AllocsPerA+1e-3 {
				failures = append(failures, fmt.Sprintf("%s: %.4f allocs/op, committed %.4f (allocation growth is gated at zero)",
					cur.Name, cur.AllocsPerA, base.AllocsPerA))
			}
			if headlineDrift(cur.HeadlineMB, base.HeadlineMB) {
				failures = append(failures, fmt.Sprintf("%s: headline %v MB/s, committed %v (results changed)",
					cur.Name, cur.HeadlineMB, base.HeadlineMB))
			}
		}
	}
	return failures, wallSuspects
}

// runTrend gates the run against the best historical point per cell:
// across every history entry, the lowest wall and the lowest
// allocs/op. The headline must equal the one recorded with the best
// wall. A run may match the latest entry and still fail here if an
// older entry was better — the trajectory is not allowed to decay one
// tolerable step at a time.
func runTrend(rep *Report, hist []Report) (failures, wallSuspects []string) {
	for _, cur := range rep.Cells {
		var best CellResult
		var bestAllocs float64
		var bestWallAt, bestAllocsAt string
		for _, h := range hist {
			for _, base := range h.Cells {
				if base.Name != cur.Name || base.WallSec <= 0 {
					continue
				}
				if best.WallSec == 0 || base.WallSec < best.WallSec {
					best, bestWallAt = base, entryLabel(h)
				}
				if base.AllocsPerA > 0 && (bestAllocs == 0 || base.AllocsPerA < bestAllocs) {
					bestAllocs, bestAllocsAt = base.AllocsPerA, entryLabel(h)
				}
			}
		}
		if best.WallSec > 0 {
			if slow := cur.WallSec/best.WallSec - 1; slow > gateWallTolerance {
				failures = append(failures, fmt.Sprintf("%s: wall %.3fs is %.0f%% over the best historical %.3fs (%s)",
					cur.Name, cur.WallSec, slow*100, best.WallSec, bestWallAt))
				wallSuspects = append(wallSuspects, cur.Name)
			}
			if headlineDrift(cur.HeadlineMB, best.HeadlineMB) {
				failures = append(failures, fmt.Sprintf("%s: headline %v MB/s, best historical point has %v (%s; results changed)",
					cur.Name, cur.HeadlineMB, best.HeadlineMB, bestWallAt))
			}
		}
		if bestAllocs > 0 && cur.AllocsPerA > bestAllocs+1e-3 {
			failures = append(failures, fmt.Sprintf("%s: %.4f allocs/op, best historical %.4f (%s)",
				cur.Name, cur.AllocsPerA, bestAllocs, bestAllocsAt))
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
