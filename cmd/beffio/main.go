// Command beffio runs the effective I/O bandwidth benchmark on a
// simulated machine profile and prints the summary and, optionally,
// the Fig.-4-style detail protocol.
//
// Usage:
//
//	beffio -machine sp -procs 32
//	beffio -machine t3e -procs 16 -T 120 -detail
//	beffio -machine sx5 -procs 4 -csv io.csv
//	beffio -machine sp -sweep 8,16,32,64
//	beffio -machine sp -procs 8 -perturb io-hiccup -seed 3 -reps 3
//	beffio -machine sp -procs 16 -progress -metrics io.ndjson
//	beffio -machine bb -procs 8 -workload examples/workloads/bursty.json
//	beffio -machine dragonfly -procs 16 -workload spec.json -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/stats"
	"github.com/hpcbench/beff/internal/workload"
)

func main() {
	c := cli.New("beffio")
	c.MachineFlags(nil)
	c.ConfigFlag(nil)
	c.SeedFlag(nil, "seed for the -perturb fault schedule")
	c.RepsFlag(nil, 1, "repetitions of the whole benchmark; with -perturb each uses an independently derived seed and the maximum is reported")
	c.PerturbFlag(nil, "")
	c.CheckFlag(nil, false)
	c.ProfileFlags(nil)
	c.ObsFlags(nil)
	var (
		tSecs     = flag.Float64("T", 60, "scheduled time per partition in virtual seconds (paper: >= 900)")
		geometric = flag.Bool("geometric", false, "use geometric termination batching (the paper's §5.4 proposal)")
		noCB      = flag.Bool("no-collective-buffering", false, "disable two-phase collective I/O (ablation)")
		skipType3 = flag.Bool("skip-type3", false, "omit pattern type 3, as parts of the paper's own data do")
		randomExt = flag.Bool("random", false, "also measure the §6 random-access extension (reported separately)")
		bgLoad    = flag.Float64("load", 0, "background I/O load fraction [0,1): non-dedicated-system mode")
		detail    = flag.Bool("detail", false, "print the per-pattern protocol and Fig.-4-style chart")
		csvPath   = flag.String("csv", "", "write the detail protocol as CSV to this file")
		sweep     = flag.String("sweep", "", "comma-separated partition sizes; runs each and reports the system maximum")
		maxReps   = flag.Int("maxreps", 1<<14, "cap repetitions per pattern (bounds simulation cost)")
		wlPath    = flag.String("workload", "", "run a workload-grammar spec (JSON file, see docs/API.md) instead of the Table-2 benchmark")
		wlJSON    = flag.Bool("json", false, "with -workload: print the result as canonical JSON (the golden-corpus encoding)")
	)
	flag.Parse()

	c.Validate()
	switch {
	case *tSecs <= 0:
		c.UsageErr("-T must be positive, got %v", *tSecs)
	case *bgLoad < 0 || *bgLoad >= 1:
		c.UsageErr("-load must be in [0,1), got %v", *bgLoad)
	case *maxReps < 1:
		c.UsageErr("-maxreps must be >= 1, got %d", *maxReps)
	}

	stopProf := c.StartProfiling()
	defer stopProf()

	p, err := c.LoadMachine()
	c.Fatal(err)

	o := c.StartObs()

	opt := beffio.Options{
		T:                   des.DurationOf(*tSecs),
		MPart:               p.MPart(),
		GeometricBatching:   *geometric,
		Info:                mpiio.Info{NoCollectiveBuffering: *noCB},
		MaxRepsPerPattern:   *maxReps,
		MeasureRandomAccess: *randomExt,
	}
	if *skipType3 {
		opt.SkipTypes = []beffio.PatternType{beffio.Segmented}
	}
	o.InstrumentIO(&opt.Info)

	pert, err := c.LoadPerturb()
	c.Fatal(err)
	if pert != nil {
		fmt.Printf("perturbation: %s (seed %d)\n", pert.Name, c.Seed)
	}

	// setupWith builds the per-run world; the perturbation profile and
	// the obs instruments are applied inside the closure so every fresh
	// world of a -sweep or -reps run gets the fault schedule for its
	// own seed and accumulates into the shared registry. All of them
	// attach through composable Observer registrations, so their order
	// does not matter.
	setupWith := func(perturbSeed int64) func(int) (mpi.WorldConfig, *simfs.FS, error) {
		return func(n int) (mpi.WorldConfig, *simfs.FS, error) {
			w, err := p.BuildIOWorld(n)
			if err != nil {
				return mpi.WorldConfig{}, nil, err
			}
			if p.FS == nil {
				return mpi.WorldConfig{}, nil, fmt.Errorf("machine %s has no I/O model", p.Key)
			}
			fsCfg := *p.FS
			fsCfg.BackgroundLoad = *bgLoad
			fs, err := simfs.New(fsCfg)
			if err != nil {
				return mpi.WorldConfig{}, nil, err
			}
			o.InstrumentWorld(&w)
			o.InstrumentNet(w.Net)
			o.InstrumentFS(fs)
			pert.Apply(w.Net, fs, perturbSeed)
			return w, fs, nil
		}
	}

	// runOne executes the benchmark once, with the full invariant watch
	// set installed when -check is on.
	runOne := func(w mpi.WorldConfig, fs *simfs.FS) (*beffio.Result, error) {
		if !c.Check {
			return beffio.Run(w, fs, opt)
		}
		chk := check.New()
		chk.WatchWorld(&w)
		chk.WatchNet(w.Net)
		chk.WatchFS(fs)
		res, err := beffio.Run(w, fs, opt)
		if err != nil {
			return nil, err
		}
		chk.VerifyBeffIO(res)
		if err := chk.Finish(); err != nil {
			return nil, err
		}
		return res, nil
	}

	o.StartTicker()

	if *wlPath != "" {
		switch {
		case *sweep != "":
			c.UsageErr("-workload and -sweep are mutually exclusive")
		case *detail || *csvPath != "" || *randomExt:
			c.UsageErr("-detail, -csv and -random describe the Table-2 benchmark, not -workload runs")
		}
		spec, err := workload.ParseFile(*wlPath)
		c.Fatal(err)
		c.Fatal(spec.Runnable())

		runWL := func(perturbSeed int64) *workload.Result {
			w, fs, err := setupWith(perturbSeed)(c.Procs)
			c.Fatal(err)
			var chk *check.Checker
			if c.Check {
				chk = check.New()
				chk.WatchWorld(&w)
				chk.WatchNet(w.Net)
				chk.WatchFS(fs)
			}
			res, err := workload.Run(w, fs, spec)
			c.Fatal(err)
			if chk != nil {
				c.Fatal(chk.Finish())
			}
			return res
		}

		if c.Reps > 1 {
			values := make([]float64, 0, c.Reps)
			lines := make([]string, 0, c.Reps)
			for r := 0; r < c.Reps; r++ {
				rs := perturb.RepSeed(c.Seed, r)
				res := runWL(rs)
				values = append(values, res.BW)
				lines = append(lines, fmt.Sprintf("rep %2d (seed %20d): %9.1f MB/s", r, rs, res.BW/1e6))
			}
			o.Close()
			for _, l := range lines {
				fmt.Println(l)
			}
			s := stats.Describe(values...)
			fmt.Printf("\nmin / median / max = %.1f / %.1f / %.1f MB/s   mean %.1f   CV %.2f%%\n",
				s.Min/1e6, s.Median/1e6, s.Max/1e6, s.Mean/1e6, 100*s.CV)
			fmt.Printf("workload %s: max over %d repetitions = %.1f MB/s (%d processes)\n",
				spec.Name, c.Reps, s.Max/1e6, c.Procs)
			return
		}

		res := runWL(c.Seed)
		o.Close()
		if *wlJSON {
			data, err := json.MarshalIndent(res, "", "  ")
			c.Fatal(err)
			os.Stdout.Write(append(data, '\n'))
			return
		}
		if c.Check {
			fmt.Println("check: all invariants held")
		}
		fmt.Printf("machine: %s   workload: %s (seed %d, %d processes)\n", p.Name, res.Name, res.Seed, res.Procs)
		for _, ph := range res.Phases {
			fmt.Printf("  %-14s %8d ops  %12d B read  %12d B written  %9.1f MB/s\n",
				ph.Name, ph.Ops, ph.ReadBytes, ph.WriteBytes, ph.BW/1e6)
		}
		fmt.Printf("aggregate: %d B in %.4f s = %.1f MB/s\n", res.TotalBytes, res.Seconds, res.BW/1e6)
		return
	}

	if *sweep != "" {
		sizes, err := parseSizes(*sweep)
		c.Fatal(err)
		results, err := beffio.Sweep(setupWith(c.Seed), sizes, opt)
		o.Close()
		c.Fatal(err)
		if c.Check {
			// The sweep builds its worlds internally, so the runtime
			// watches cannot chain in; the result-level invariants still
			// hold for every partition.
			chk := check.New()
			for _, r := range results {
				chk.VerifyBeffIO(r)
			}
			c.Fatal(chk.Finish())
			fmt.Println("check: all result invariants held")
		}
		series := report.Series{Name: p.Name, Points: map[int]float64{}}
		for _, r := range results {
			series.Points[r.Procs] = r.BeffIO
		}
		fmt.Print(report.SweepChart("b_eff_io over partition sizes (Fig. 3 / Fig. 5 shape)", []report.Series{series}))
		best := beffio.SystemValue(results)
		fmt.Printf("\nsystem b_eff_io = %.1f MB/s (at %d processes, T = %v)\n",
			best.BeffIO/1e6, best.Procs, best.T)
		return
	}

	if c.Reps > 1 {
		// Whole-benchmark repetitions: each runs against a fresh world
		// and filesystem under an independently derived fault-schedule
		// seed, and the maximum over repetitions is reported (the
		// paper's rule for repeated measurements).
		values := make([]float64, 0, c.Reps)
		lines := make([]string, 0, c.Reps)
		for r := 0; r < c.Reps; r++ {
			rs := perturb.RepSeed(c.Seed, r)
			w, fs, err := setupWith(rs)(c.Procs)
			c.Fatal(err)
			res, err := runOne(w, fs)
			c.Fatal(err)
			values = append(values, res.BeffIO)
			lines = append(lines, fmt.Sprintf("rep %2d (seed %20d): b_eff_io = %9.1f MB/s", r, rs, res.BeffIO/1e6))
		}
		o.Close()
		for _, l := range lines {
			fmt.Println(l)
		}
		s := stats.Describe(values...)
		fmt.Printf("\nmin / median / max = %.1f / %.1f / %.1f MB/s   mean %.1f   CV %.2f%%\n",
			s.Min/1e6, s.Median/1e6, s.Max/1e6, s.Mean/1e6, 100*s.CV)
		fmt.Printf("reported b_eff_io (max over %d repetitions) = %.1f MB/s (%d processes, T = %v)\n",
			c.Reps, s.Max/1e6, c.Procs, opt.T)
		return
	}

	w, fs, err := setupWith(c.Seed)(c.Procs)
	c.Fatal(err)
	res, err := runOne(w, fs)
	o.Close()
	c.Fatal(err)
	if c.Check {
		fmt.Println("check: all invariants held")
	}

	fmt.Printf("machine: %s   filesystem: %s\n", p.Name, fs.Config().Name)
	fmt.Printf("b_eff_io = %.1f MB/s (%d processes, T = %v)\n", res.BeffIO/1e6, res.Procs, res.T)
	for _, mr := range res.Methods {
		fmt.Printf("  %-13v %9.1f MB/s\n", mr.Method, mr.BW/1e6)
	}
	if *detail {
		fmt.Println()
		fmt.Print(report.BeffIOProtocol(res))
		fmt.Println()
		fmt.Print(report.Fig4Chart(res))
	}
	if len(res.RandomAccess) > 0 {
		fmt.Println("\nrandom-access extension (§6; not part of the b_eff_io average):")
		for _, m := range res.RandomAccess {
			fmt.Printf("  chunk %8d B: read %8.1f MB/s  write %8.1f MB/s\n",
				m.Chunk, m.ReadBW/1e6, m.WriteBW/1e6)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		c.Fatal(err)
		c.Fatal(report.BeffIOCSV(f, p.Key, res))
		c.Fatal(f.Close())
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad partition size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
