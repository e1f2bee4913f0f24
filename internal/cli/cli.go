// Package cli factors the flag surface shared by the beff command
// family into one place: a Config struct holding every common knob,
// grouped registration helpers so each command installs only the
// groups it supports, shared validation, the process's one result
// cache for the sweep group, and the exit-code convention — runtime
// failures exit 1, usage errors print the message plus the flag summary
// and exit 2.
//
// The observability flags (-metrics, -metrics-interval, -progress,
// -debug-addr) and the run harness behind them live in obs.go; a
// command that registers ObsFlags gets all three exposure paths of
// internal/obs wired from one StartObs call.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/prof"
	"github.com/hpcbench/beff/internal/runner"
)

// Config is the shared command-line surface. Zero value plus a Name is
// ready for flag registration; fields are only meaningful after the
// owning FlagSet has parsed.
type Config struct {
	// Name prefixes every diagnostic ("beff: ...") and names the
	// command in usage errors.
	Name string

	// Machine selection (MachineFlags / ConfigFlag).
	Machine    string
	ConfigPath string
	Procs      int

	// Run shaping (SeedFlag / RepsFlag / PerturbFlag).
	Seed    int64
	Reps    int
	Perturb string

	// Verification (CheckFlag).
	Check bool

	// Tracing (TraceFlag).
	TracePath string

	// Host profiling (ProfileFlags).
	CPUProfile string
	MemProfile string

	// Observability (ObsFlags).
	MetricsPath     string
	MetricsInterval time.Duration
	Progress        bool
	DebugAddr       string

	// Fleet surface (FleetFlags), used by the fleet command only.
	Machines    string
	ProcsLadder string

	// Sweep surface (SweepFlags): worker count and the result cache.
	J        int
	CacheDir string
	NoCache  bool

	// Daemon surface (ServeFlags), used by beffd only.
	Addr          string
	QueueLimit    int
	MaxClientJobs int
	MaxJobs       int
	DrainTimeout  time.Duration

	fs *flag.FlagSet // the set the groups registered on, for Usage

	cacheOnce sync.Once
	cache     *runner.Cache

	hasMachine, hasSeed, hasReps, hasServe bool
}

// New returns a Config for the named command.
func New(name string) *Config { return &Config{Name: name} }

func (c *Config) bind(fs *flag.FlagSet) *flag.FlagSet {
	if fs == nil {
		fs = flag.CommandLine
	}
	c.fs = fs
	return fs
}

// MachineFlags registers -machine and -procs. A nil fs means
// flag.CommandLine (likewise for every other group).
func (c *Config) MachineFlags(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.Machine, "machine", "cluster", "machine profile key")
	fs.IntVar(&c.Procs, "procs", 8, "number of simulated processes")
	c.hasMachine = true
}

// ConfigFlag registers -config, the JSON machine definition override
// (not every command supports ad-hoc machines, so it is separate from
// MachineFlags).
func (c *Config) ConfigFlag(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.ConfigPath, "config", "", "JSON machine definition file (overrides -machine)")
}

// SeedFlag registers -seed. An empty help keeps the standard text.
func (c *Config) SeedFlag(fs *flag.FlagSet, help string) {
	fs = c.bind(fs)
	if help == "" {
		help = "seed for the random workload and the -perturb fault schedule"
	}
	fs.Int64Var(&c.Seed, "seed", 1, help)
	c.hasSeed = true
}

// RepsFlag registers -reps with the command's default; the help string
// is a parameter because repetition semantics differ per command.
func (c *Config) RepsFlag(fs *flag.FlagSet, def int, help string) {
	fs = c.bind(fs)
	fs.IntVar(&c.Reps, "reps", def, help)
	c.hasReps = true
}

// PerturbFlag registers -perturb with the command's default profile
// (empty disables perturbation).
func (c *Config) PerturbFlag(fs *flag.FlagSet, def string) {
	fs = c.bind(fs)
	fs.StringVar(&c.Perturb, "perturb", def,
		"fault-injection profile: preset name ("+strings.Join(perturb.Presets(), ", ")+") or JSON file; empty disables perturbation")
}

// CheckFlag registers -check. resultOnly selects the weaker help text
// for commands that can only verify result-level invariants.
func (c *Config) CheckFlag(fs *flag.FlagSet, resultOnly bool) {
	fs = c.bind(fs)
	help := "verify runtime invariants (byte conservation, causality, reductions) and fail on violation"
	if resultOnly {
		help = "verify result invariants (reductions, statistics) and fail on violation"
	}
	fs.BoolVar(&c.Check, "check", false, help)
}

// TraceFlag registers -trace.
func (c *Config) TraceFlag(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.TracePath, "trace", "", "write a Chrome trace (chrome://tracing) of every message to this file")
}

// ProfileFlags registers -cpuprofile and -memprofile.
func (c *Config) ProfileFlags(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// ObsFlags registers the observability surface: -metrics,
// -metrics-interval, -progress and -debug-addr.
func (c *Config) ObsFlags(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.MetricsPath, "metrics", "", "stream metrics snapshots to this file as JSON lines")
	fs.DurationVar(&c.MetricsInterval, "metrics-interval", time.Second,
		"interval between -metrics snapshots; 0 writes only the final snapshot")
	fs.BoolVar(&c.Progress, "progress", false, "paint a live progress line on stderr")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /metrics (Prometheus) and /vars (JSON) on this address while running")
}

// FleetFlags registers the fleet-sweep surface: -machines (comma-
// separated profile keys, empty = every registered profile) and
// -procs (the comma-separated partition ladder — entries above a
// machine's MaxProcs clamp to it, so small machines still appear).
func (c *Config) FleetFlags(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.Machines, "machines", "",
		"comma-separated machine profile keys to sweep (empty = every registered profile)")
	fs.StringVar(&c.ProcsLadder, "procs", "4,8",
		"comma-separated partition-size ladder; entries above a machine's MaxProcs clamp to it")
}

// ParseMachines splits the -machines list; empty means nil (all
// profiles). Keys are not resolved here — FleetSpec validation owns
// that, with its list-of-known-keys error.
func (c *Config) ParseMachines() []string {
	if strings.TrimSpace(c.Machines) == "" {
		return nil
	}
	var keys []string
	for _, k := range strings.Split(c.Machines, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// ParseProcsLadder parses the -procs ladder into ints.
func (c *Config) ParseProcsLadder() ([]int, error) {
	var ladder []int
	for _, s := range strings.Split(c.ProcsLadder, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad -procs entry %q: not an integer", s)
		}
		ladder = append(ladder, n)
	}
	if len(ladder) == 0 {
		return nil, fmt.Errorf("-procs ladder is empty")
	}
	return ladder, nil
}

// SweepFlags registers the sweep surface: -j, -cache and -no-cache.
func (c *Config) SweepFlags(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.IntVar(&c.J, "j", runtime.GOMAXPROCS(0), "parallel workers for independent simulation cells")
	fs.StringVar(&c.CacheDir, "cache", runner.DefaultCacheDir, "result cache directory")
	fs.BoolVar(&c.NoCache, "no-cache", false, "recompute everything, ignore and do not write the cache")
}

// Cache opens the -cache directory on first use and returns that same
// cache on every later call, so all sweeps of one process share one
// store and its writer lock. It is nil under -no-cache, and nil with a
// stderr warning when the directory cannot be opened: the cache never
// aborts a sweep. A directory another process holds opens read-only,
// also with one warning.
func (c *Config) Cache() *runner.Cache {
	c.cacheOnce.Do(func() {
		if c.NoCache {
			return
		}
		cache, err := runner.OpenCache(c.CacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: cache disabled: %v\n", c.Name, err)
			return
		}
		if err := cache.ReadOnly(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: cache read-only, results will not be saved: %v\n", c.Name, err)
		}
		c.cache = cache
	})
	return c.cache
}

// SweepOptions returns the options for one sweep: -j workers, per-cell
// progress on stderr under label, and the process's shared Cache.
func (c *Config) SweepOptions(label string) runner.Options {
	return runner.Options{Workers: c.J, Progress: os.Stderr, Label: label, Cache: c.Cache()}
}

// CloseCache releases the cache's writer lock, if Cache opened one.
func (c *Config) CloseCache() { c.cache.Close() }

// ServeFlags registers the daemon surface: -addr, -queue-limit,
// -max-client-jobs, -max-jobs and -drain-timeout (beffd only; the
// defaults mirror internal/serve's Config defaults).
func (c *Config) ServeFlags(fs *flag.FlagSet) {
	fs = c.bind(fs)
	fs.StringVar(&c.Addr, "addr", "localhost:8080", "address to serve the sweep API on (\":0\" picks a free port)")
	fs.IntVar(&c.QueueLimit, "queue-limit", 256, "max admitted-but-unfinished cells, server-wide; excess submissions get 503")
	fs.IntVar(&c.MaxClientJobs, "max-client-jobs", 4, "max unfinished jobs per client; excess submissions get 429")
	fs.IntVar(&c.MaxJobs, "max-jobs", 1024, "finished jobs retained for result fetches before eviction")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 10*time.Minute, "max time to let admitted cells finish after SIGTERM/SIGINT")
	c.hasServe = true
}

// Validate enforces the invariants of every registered shared group;
// a violation is a usage error (message, flag summary, exit 2).
// Command-specific flags are the command's own job, via UsageErr.
func (c *Config) Validate() {
	switch {
	case c.hasMachine && c.Procs < 1:
		c.UsageErr("-procs must be >= 1, got %d", c.Procs)
	case c.hasReps && c.Reps < 1:
		c.UsageErr("-reps must be >= 1, got %d", c.Reps)
	case c.hasSeed && c.Seed < 1:
		c.UsageErr("-seed must be >= 1, got %d", c.Seed)
	case c.MetricsInterval < 0:
		c.UsageErr("-metrics-interval must not be negative, got %v", c.MetricsInterval)
	case c.hasServe && c.QueueLimit < 1:
		c.UsageErr("-queue-limit must be >= 1, got %d", c.QueueLimit)
	case c.hasServe && c.MaxClientJobs < 1:
		c.UsageErr("-max-client-jobs must be >= 1, got %d", c.MaxClientJobs)
	case c.hasServe && c.MaxJobs < 1:
		c.UsageErr("-max-jobs must be >= 1, got %d", c.MaxJobs)
	case c.hasServe && c.DrainTimeout <= 0:
		c.UsageErr("-drain-timeout must be positive, got %v", c.DrainTimeout)
	}
}

// Fatal reports err prefixed with the command name and exits 1; a nil
// err is a no-op.
func (c *Config) Fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		os.Exit(1)
	}
}

// UsageErr reports a bad-invocation message, prints the flag summary,
// and exits 2 — the PR-3 exit-code convention for usage errors.
func (c *Config) UsageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", c.Name, fmt.Sprintf(format, args...))
	if c.fs != nil && c.fs.Usage != nil {
		c.fs.Usage()
	} else {
		flag.Usage()
	}
	os.Exit(2)
}

// LoadMachine resolves the machine selection: the -config JSON
// definition when given, the built-in -machine key otherwise.
func (c *Config) LoadMachine() (*machine.Profile, error) {
	if c.ConfigPath != "" {
		return machine.LoadConfig(c.ConfigPath)
	}
	return machine.Lookup(c.Machine)
}

// LoadPerturb resolves -perturb; an empty flag yields a nil profile,
// which every Apply* treats as a no-op.
func (c *Config) LoadPerturb() (*perturb.Profile, error) {
	if c.Perturb == "" {
		return nil, nil
	}
	return perturb.Load(c.Perturb)
}

// StartProfiling starts the CPU profile (if requested) and returns a
// stop function that also writes the heap profile — call it via defer.
func (c *Config) StartProfiling() func() {
	stopCPU, err := prof.StartCPU(c.CPUProfile)
	c.Fatal(err)
	return func() {
		stopCPU()
		c.Fatal(prof.WriteHeap(c.MemProfile))
	}
}
