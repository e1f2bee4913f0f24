// Command robustness characterises a benchmark's run-to-run
// variability under fault injection: it runs b_eff (or b_eff_io) N
// times on a simulated machine, each repetition under the same
// perturbation profile but an independently derived seed, and reports
// the distribution — min, median, max, mean, coefficient of variation
// — together with the paper-prescribed max-over-repetitions value and
// the unperturbed baseline.
//
// Repetitions are independent simulation cells: they fan out over -j
// workers and memoise in the shared result cache (the perturbation
// profile and per-repetition seed are part of each cell's cache
// fingerprint). Output is byte-identical across invocations and across
// -j values.
//
// Usage:
//
//	robustness -machine t3e -procs 16 -reps 8 -perturb stormy
//	robustness -machine sp -procs 8 -reps 5 -perturb os-noise -seed 7
//	robustness -machine sp -procs 8 -io -perturb io-hiccup -T 30
//	robustness -machine t3e -procs 16 -reps 32 -progress -debug-addr localhost:6060
//	robustness -list-presets
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/runner"
)

func main() {
	c := cli.New("robustness")
	c.MachineFlags(nil)
	c.SeedFlag(nil, "base seed; repetition r runs under RepSeed(seed, r)")
	c.RepsFlag(nil, 5, "independent perturbed repetitions")
	c.PerturbFlag(nil, "stormy")
	c.CheckFlag(nil, true)
	c.ProfileFlags(nil)
	c.ObsFlags(nil)
	c.SweepFlags(nil)
	var (
		maxLoop     = flag.Int("maxloop", 8, "b_eff: max looplength")
		innerReps   = flag.Int("inner-reps", 3, "b_eff: in-run repetitions per measurement (the paper's 3)")
		ioBench     = flag.Bool("io", false, "measure b_eff_io instead of b_eff")
		tSecs       = flag.Float64("T", 60, "b_eff_io: scheduled time per partition in virtual seconds")
		baseline    = flag.Bool("baseline", true, "also run the unperturbed cell for comparison")
		csvPath     = flag.String("csv", "", "write per-repetition values as CSV to this file")
		listPresets = flag.Bool("list-presets", false, "list built-in perturbation presets and exit")
	)
	flag.Parse()

	if *listPresets {
		for _, name := range perturb.Presets() {
			p, _ := perturb.Preset(name)
			fmt.Printf("%-12s %d link, %d noise, %d straggler, %d I/O fault(s)\n",
				name, len(p.Links), len(p.Noise), len(p.Stragglers), len(p.IO))
		}
		return
	}
	c.Validate()
	switch {
	case *maxLoop < 1:
		c.UsageErr("-maxloop must be >= 1, got %d", *maxLoop)
	case *innerReps < 1:
		c.UsageErr("-inner-reps must be >= 1, got %d", *innerReps)
	case *tSecs <= 0:
		c.UsageErr("-T must be positive, got %v", *tSecs)
	}

	stopProf := c.StartProfiling()
	defer stopProf()

	pert, err := perturb.Load(c.Perturb)
	c.Fatal(err)
	p, err := c.LoadMachine()
	c.Fatal(err)

	// The harness watches the sweep from the outside: runner cell
	// counts, cache hits and worker occupancy (the cells build their
	// worlds inside the cache boundary, so per-message instruments stay
	// off and cached and uncached runs stay byte-identical).
	o := c.StartObs()
	sweepOpt := o.SweepOptions(c.SweepOptions("robustness"))
	defer c.CloseCache()

	var bench string
	var values []float64
	var base float64
	var chk *check.Checker
	if c.Check {
		chk = check.New()
	}
	if *ioBench {
		bench = "b_eff_io"
		opt := beffio.Options{T: des.DurationOf(*tSecs), MPart: p.MPart()}
		cells := make([]runner.Cell[*beffio.Result], 0, c.Reps+1)
		for r := 0; r < c.Reps; r++ {
			cells = append(cells, runner.RobustBeffIOCell(c.Machine, c.Procs, opt, pert, c.Seed, r))
		}
		if *baseline {
			cells = append(cells, runner.RobustBeffIOCell(c.Machine, c.Procs, opt, nil, 0, 0))
		}
		results := runner.Sweep(cells, sweepOpt)
		o.Close()
		c.Fatal(runner.Err(results))
		for _, r := range results {
			if chk != nil {
				chk.VerifyBeffIO(r.Value)
			}
		}
		for r := 0; r < c.Reps; r++ {
			values = append(values, results[r].Value.BeffIO)
		}
		if *baseline {
			base = results[c.Reps].Value.BeffIO
		}
	} else {
		bench = "b_eff"
		opt := core.Options{MemoryPerProc: p.MemoryPerProc, MaxLooplength: *maxLoop, Reps: *innerReps}
		cells := make([]runner.Cell[*core.Result], 0, c.Reps+1)
		for r := 0; r < c.Reps; r++ {
			cells = append(cells, runner.RobustBeffCell(c.Machine, c.Procs, opt, pert, c.Seed, r))
		}
		if *baseline {
			cells = append(cells, runner.RobustBeffCell(c.Machine, c.Procs, opt, nil, 0, 0))
		}
		results := runner.Sweep(cells, sweepOpt)
		o.Close()
		c.Fatal(runner.Err(results))
		for _, r := range results {
			if chk != nil {
				chk.VerifyBeff(r.Value)
			}
		}
		for r := 0; r < c.Reps; r++ {
			values = append(values, results[r].Value.Beff)
		}
		if *baseline {
			base = results[c.Reps].Value.Beff
		}
	}

	rob := runner.SummarizeReps(values)
	if chk != nil {
		chk.VerifyRobustness(rob)
		c.Fatal(chk.Finish())
		fmt.Println("check: all result invariants held")
	}
	fmt.Printf("robustness of %s on %s @ %d procs — profile %q, base seed %d, %d repetitions\n",
		bench, p.Name, c.Procs, pert.Name, c.Seed, c.Reps)
	fmt.Printf("%4s  %20s  %12s\n", "rep", "seed", bench+" MB/s")
	for r, v := range values {
		fmt.Printf("%4d  %20d  %12.1f\n", r, perturb.RepSeed(c.Seed, r), v/1e6)
	}
	s := rob.Summary
	fmt.Printf("\nmin / median / max = %.1f / %.1f / %.1f MB/s   mean %.1f   CV %.2f%%\n",
		s.Min/1e6, s.Median/1e6, s.Max/1e6, s.Mean/1e6, 100*s.CV)
	fmt.Printf("reported %s (max over repetitions) = %.1f MB/s", bench, rob.MaxOverReps/1e6)
	if *baseline && base > 0 {
		fmt.Printf("   (%.1f%% of unperturbed %.1f MB/s)", 100*rob.MaxOverReps/base, base/1e6)
	}
	fmt.Println()

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		c.Fatal(err)
		w := csv.NewWriter(f)
		c.Fatal(w.Write([]string{"machine", "bench", "profile", "rep", "seed", "value_bytes_per_s"}))
		for r, v := range values {
			c.Fatal(w.Write([]string{c.Machine, bench, pert.Name, strconv.Itoa(r),
				strconv.FormatInt(perturb.RepSeed(c.Seed, r), 10),
				strconv.FormatFloat(v, 'g', -1, 64)}))
		}
		w.Flush()
		c.Fatal(w.Error())
		c.Fatal(f.Close())
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
