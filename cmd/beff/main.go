// Command beff runs the effective bandwidth benchmark on a simulated
// machine profile and prints the Table-1 row plus, optionally, the
// full measurement protocol.
//
// Usage:
//
//	beff -machine t3e -procs 64
//	beff -machine sr8000-rr -procs 24 -protocol
//	beff -machine sx5 -procs 4 -csv beff.csv
//	beff -machine t3e -procs 16 -perturb stormy -seed 3 -reps 3
//	beff -machine t3e -procs 64 -progress -metrics run.ndjson
//	beff -list
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/trace"
)

func main() {
	c := cli.New("beff")
	c.MachineFlags(nil)
	c.ConfigFlag(nil)
	c.SeedFlag(nil, "seed for the random polygons and the -perturb fault schedule")
	c.RepsFlag(nil, 1, "repetitions per measurement (paper uses 3; matters under -perturb, where timings vary)")
	c.PerturbFlag(nil, "")
	c.CheckFlag(nil, false)
	c.TraceFlag(nil)
	c.ProfileFlags(nil)
	c.ObsFlags(nil)
	var (
		maxLoop  = flag.Int("maxloop", 8, "max looplength (300 = paper-faithful; smaller = faster simulation)")
		protocol = flag.Bool("protocol", false, "print the full measurement protocol")
		csvPath  = flag.String("csv", "", "write the per-pattern/size/method data as CSV to this file")
		skampi   = flag.String("skampi", "", "write SKaMPI-comparison-page records to this file")
		hotspots = flag.Int("hotspots", 0, "print the N busiest network resources after the run")
		list     = flag.Bool("list", false, "list machine profiles and exit")
	)
	flag.Parse()

	c.Validate()
	switch {
	case *maxLoop < 1:
		c.UsageErr("-maxloop must be >= 1, got %d", *maxLoop)
	case *hotspots < 0:
		c.UsageErr("-hotspots must not be negative, got %d", *hotspots)
	}

	if *list {
		for _, p := range machine.All() {
			fmt.Printf("%-12s %s\n", p.Key, p)
		}
		return
	}

	stopProf := c.StartProfiling()
	defer stopProf()

	p, err := c.LoadMachine()
	c.Fatal(err)
	w, err := p.BuildWorld(c.Procs)
	c.Fatal(err)

	// Every subscriber below — obs instruments, perturbation, trace,
	// checker — attaches through the composable Observer registrations,
	// so their relative order does not matter.
	o := c.StartObs()
	o.InstrumentWorld(&w)
	o.InstrumentNet(w.Net)

	pert, err := c.LoadPerturb()
	c.Fatal(err)
	if pert != nil {
		pert.ApplyNet(w.Net, c.Seed)
		fmt.Printf("perturbation: %s (seed %d)\n", pert.Name, c.Seed)
	}

	var col *trace.Collector
	if c.TracePath != "" {
		col = trace.New()
		w.Net.Observe(col.OnTransfer)
	}

	var chk *check.Checker
	if c.Check {
		chk = check.New()
		chk.WatchWorld(&w)
		chk.WatchNet(w.Net)
	}

	o.StartTicker()
	opt := core.Options{
		MemoryPerProc: p.MemoryPerProc,
		Seed:          c.Seed,
		MaxLooplength: *maxLoop,
		Reps:          c.Reps,
	}
	res, err := core.Run(w, opt)
	c.Fatal(err)
	o.RecordNetBusy(w.Net, des.Time(des.DurationOf(res.Elapsed)))
	o.Close()

	if chk != nil {
		chk.VerifyBeff(res)
		c.Fatal(chk.Finish())
		fmt.Println("check: all invariants held")
	}

	fmt.Print(report.Table1([]report.Table1Row{report.FromBeff(p.Name, res)}))
	fmt.Printf("\nbalance factor b_eff/R_max = %.4f bytes/flop (R_max %.0f GF)\n",
		res.Beff/(p.RmaxGF(c.Procs)*1e9), p.RmaxGF(c.Procs))

	if *protocol {
		fmt.Println()
		fmt.Print(report.BeffProtocol(res))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		c.Fatal(err)
		c.Fatal(report.BeffCSV(f, p.Key, res))
		c.Fatal(f.Close())
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *skampi != "" {
		f, err := os.Create(*skampi)
		c.Fatal(err)
		c.Fatal(report.SKaMPIBeff(f, p.Key, res))
		c.Fatal(f.Close())
		fmt.Printf("wrote %s\n", *skampi)
	}
	if *hotspots > 0 {
		stats := w.Net.HotResources(des.Time(des.DurationOf(res.Elapsed)), *hotspots)
		fmt.Println()
		fmt.Print(report.UtilizationTable(stats))
	}
	if col != nil {
		f, err := os.Create(c.TracePath)
		c.Fatal(err)
		c.Fatal(col.WriteChromeTrace(f))
		c.Fatal(f.Close())
		fmt.Printf("wrote %s (%s)\n", c.TracePath, col.Summarize())
	}
}
