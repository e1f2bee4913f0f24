// Command fleet characterises every machine in one run: it sweeps all
// registered machine profiles (or a -machines subset) across a
// -procs partition ladder, optionally with perturbed repetitions per
// point, and renders the fleet-wide report — the paper's Table 1 for
// all machines, the Fig.-1 balance-factor chart, and a survey-style
// taxonomy table (fabric family, b_eff, b_eff/R_max, L_max,
// perturbation sensitivity) — in text, CSV and JSON.
//
// Every (machine, procs, repetition) point is an ordinary sweep cell:
// the fleet fans out over -j workers and shares the result cache with
// every other command, so a fleet run after a tables or robustness
// session is mostly cache hits. Output is deterministic — byte-
// identical at every -j — which makes the JSON artifact diffable: -diff
// compares a
// previous fleet JSON against this run and fails when any machine's
// b_eff or balance factor moved beyond -diff-tolerance.
//
// Usage:
//
//	fleet                                    # all machines, ladder 4,8
//	fleet -procs 4,16,64 -j 8
//	fleet -machines t3e,sp,sx5 -reps 3 -perturb stormy
//	fleet -json fleet.json -csv fleet.csv
//	fleet -json new.json -diff old.json      # drift gate, exit 1 on moves
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/runner"
)

func main() {
	c := cli.New("fleet")
	c.FleetFlags(nil)
	c.SeedFlag(nil, "base seed; perturbed repetition r runs under RepSeed(seed, r)")
	c.PerturbFlag(nil, "")
	c.ProfileFlags(nil)
	c.ObsFlags(nil)
	c.SweepFlags(nil)
	var (
		reps      = flag.Int("reps", 0, "perturbed repetitions per point (0 disables perturbation)")
		maxLoop   = flag.Int("maxloop", 2, "b_eff: max looplength; a shortcut that moves b_eff (t3e/24: b_eff/p 74.2 MB/s at 2, 83.3 at the paper's 300)")
		innerReps = flag.Int("inner-reps", 1, "b_eff: in-run repetitions per measurement")
		lmaxOver  = flag.Int64("lmax", 0, "override L_max in bytes for every machine (0 = each profile's memory rule)")
		analysis  = flag.Bool("analysis", false, "include the heavyweight analysis patterns (worst cycle, bisections)")
		csvPath   = flag.String("csv", "", "write the per-point fleet table as CSV to this file")
		jsonPath  = flag.String("json", "", "write the fleet report as JSON to this file")
		noText    = flag.Bool("no-text", false, "suppress the text report on stdout")
		generated = flag.String("generated", "", "timestamp to stamp into the JSON report (empty keeps it deterministic)")
		diffPath  = flag.String("diff", "", "compare against this previous fleet JSON and exit 1 on drift")
		diffTol   = flag.Float64("diff-tolerance", 0.01, "relative b_eff / balance-factor move that counts as drift")
	)
	flag.Parse()

	c.Validate()
	switch {
	case *reps < 0:
		c.UsageErr("-reps must be >= 0, got %d", *reps)
	case *maxLoop < 1:
		c.UsageErr("-maxloop must be >= 1, got %d", *maxLoop)
	case *innerReps < 1:
		c.UsageErr("-inner-reps must be >= 1, got %d", *innerReps)
	case *lmaxOver < 0:
		c.UsageErr("-lmax must be >= 0, got %d", *lmaxOver)
	case *diffTol <= 0:
		c.UsageErr("-diff-tolerance must be positive, got %v", *diffTol)
	}
	ladder, err := c.ParseProcsLadder()
	if err != nil {
		c.UsageErr("%v", err)
	}
	for _, n := range ladder {
		if n < 2 {
			c.UsageErr("-procs ladder entry %d below the 2-process minimum", n)
		}
	}

	stopProf := c.StartProfiling()
	defer stopProf()

	pert, err := c.LoadPerturb()
	c.Fatal(err)

	o := c.StartObs()
	spec := &runner.FleetSpec{
		Machines:      c.ParseMachines(),
		Procs:         ladder,
		Seed:          c.Seed,
		Reps:          *reps,
		Perturb:       pert,
		PerturbName:   c.Perturb,
		MaxLooplength: *maxLoop,
		InnerReps:     *innerReps,
		SkipAnalysis:  !*analysis,
		LmaxOverride:  *lmaxOver,
	}
	fr, err := runner.RunFleet(spec, o.SweepOptions(c.SweepOptions("fleet")))
	o.Close()
	c.CloseCache()
	c.Fatal(err)
	fr.Generated = *generated

	if !*noText {
		fmt.Print(report.FleetText(fr))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		c.Fatal(err)
		c.Fatal(report.FleetCSV(f, fr))
		c.Fatal(f.Close())
		fmt.Fprintf(os.Stderr, "fleet: wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		data, err := report.FleetJSON(fr)
		c.Fatal(err)
		c.Fatal(os.WriteFile(*jsonPath, data, 0o644))
		fmt.Fprintf(os.Stderr, "fleet: wrote %s\n", *jsonPath)
	}

	if *diffPath != "" {
		data, err := os.ReadFile(*diffPath)
		c.Fatal(err)
		old, err := report.ParseFleetJSON(data)
		c.Fatal(err)
		msgs := report.FleetDiff(old, fr, *diffTol)
		if len(msgs) == 0 {
			fmt.Printf("fleet: no drift vs %s (tolerance %.2f%%)\n", *diffPath, 100**diffTol)
			return
		}
		for _, m := range msgs {
			fmt.Fprintf(os.Stderr, "fleet: drift: %s\n", m)
		}
		c.Fatal(fmt.Errorf("%d machine(s) drifted vs %s", len(msgs), *diffPath))
	}
}
