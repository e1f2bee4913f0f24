package serve

import (
	"fmt"
	"strings"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/workload"
)

// SweepRequest is the body of POST /api/v1/sweeps: the axes of a
// sweep (machines × procs × repetitions) plus the benchmark options.
// The request expands into one cell per axis point; every cell is an
// ordinary runner cell, so it fingerprints, caches and dedupes exactly
// like the same cell run through cmd/beff, cmd/beffio or
// cmd/robustness.
type SweepRequest struct {
	// Fleet turns the request into a fleet characterization sweep:
	// machines defaults to every registered profile, procs becomes a
	// clamped ladder (entries above a machine's MaxProcs collapse onto
	// it), reps counts perturbed repetitions per point (0 with no
	// perturb preset), and the job's result carries an assembled
	// fleet report alongside the per-cell values. Fleet sweeps measure
	// b_eff only.
	Fleet bool `json:"fleet,omitempty"`

	// Bench selects the benchmark: "beff", "beffio" or "workload"
	// (fleet requests default it to "beff").
	Bench string `json:"bench"`

	// Workload is the pattern-AST spec of a bench "workload" request
	// (see docs/API.md for the grammar). It is canonicalized before
	// fingerprinting, so byte-different encodings of the same AST
	// share one cache entry and dedupe in flight. Required when Bench
	// is "workload", rejected otherwise.
	Workload *workload.Spec `json:"workload,omitempty"`

	// Machines are registry profile keys (see cmd/beff -list). The
	// HTTP API deliberately accepts only registered profiles — ad-hoc
	// JSON machine definitions would make the service an arbitrary
	// compute endpoint. A fleet request may leave it empty for every
	// registered profile.
	Machines []string `json:"machines"`

	// Procs are the partition sizes to sweep.
	Procs []int `json:"procs"`

	// Reps is the number of perturbed repetitions per (machine, procs)
	// point; repetition r runs under perturb.RepSeed(Seed, r). Default
	// 1. With no perturbation profile all repetitions share one
	// fingerprint and the in-flight dedupe collapses them to a single
	// execution.
	Reps int `json:"reps,omitempty"`

	// Perturb names a fault-injection preset (see cmd/robustness
	// -list-presets); empty runs unperturbed. File-based profiles are
	// not accepted over HTTP.
	Perturb string `json:"perturb,omitempty"`

	// Seed is the base seed for the random polygons and the perturbation
	// schedule. Default 1.
	Seed int64 `json:"seed,omitempty"`

	// b_eff knobs (defaults match cmd/beff).
	MaxLooplength int   `json:"max_looplength,omitempty"` // default 8
	LmaxOverride  int64 `json:"lmax_override,omitempty"`  // 0 = memory rule
	InnerReps     int   `json:"inner_reps,omitempty"`     // in-run repetitions, default 1
	SkipAnalysis  bool  `json:"skip_analysis,omitempty"`

	// b_eff_io knobs (defaults match cmd/robustness -io).
	TSeconds float64 `json:"t_seconds,omitempty"` // scheduled virtual time, default 60

	// Client identifies the submitter for per-client admission limits;
	// the X-Beff-Client header takes precedence. Empty means
	// "anonymous".
	Client string `json:"client,omitempty"`
}

// normalize applies defaults in place.
func (r *SweepRequest) normalize() {
	if r.Fleet && r.Bench == "" {
		r.Bench = "beff"
	}
	if r.Reps == 0 && !r.Fleet {
		r.Reps = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Workload != nil {
		r.Workload.Normalize()
	}
	if r.MaxLooplength == 0 {
		r.MaxLooplength = 8
	}
	if r.InnerReps == 0 {
		r.InnerReps = 1
	}
	if r.TSeconds == 0 {
		r.TSeconds = 60
	}
}

// validate rejects malformed requests with a message fit for the
// error response body.
func (r *SweepRequest) validate() error {
	if r.Fleet {
		if r.Bench != "beff" {
			return fmt.Errorf("fleet sweeps measure %q only, got bench %q", "beff", r.Bench)
		}
		if r.Reps < 0 {
			return fmt.Errorf("reps must be >= 0, got %d", r.Reps)
		}
	} else {
		if r.Bench != "beff" && r.Bench != "beffio" && r.Bench != "workload" {
			return fmt.Errorf("bench must be %q, %q or %q, got %q", "beff", "beffio", "workload", r.Bench)
		}
		if len(r.Machines) == 0 {
			return fmt.Errorf("machines must name at least one profile")
		}
		if len(r.Procs) == 0 {
			return fmt.Errorf("procs must list at least one partition size")
		}
		if r.Reps < 1 {
			return fmt.Errorf("reps must be >= 1, got %d", r.Reps)
		}
	}
	for _, key := range r.Machines {
		if _, err := machine.Lookup(key); err != nil {
			return err
		}
	}
	for _, p := range r.Procs {
		if p < 1 {
			return fmt.Errorf("procs entries must be >= 1, got %d", p)
		}
		if r.Fleet && p < 2 {
			return fmt.Errorf("fleet procs ladder entries must be >= 2, got %d", p)
		}
	}
	if r.Seed < 1 {
		return fmt.Errorf("seed must be >= 1, got %d", r.Seed)
	}
	if r.MaxLooplength < 1 {
		return fmt.Errorf("max_looplength must be >= 1, got %d", r.MaxLooplength)
	}
	if r.InnerReps < 1 {
		return fmt.Errorf("inner_reps must be >= 1, got %d", r.InnerReps)
	}
	if r.TSeconds <= 0 {
		return fmt.Errorf("t_seconds must be positive, got %v", r.TSeconds)
	}
	if r.Perturb != "" {
		if _, err := perturb.Preset(r.Perturb); err != nil {
			return fmt.Errorf("unknown perturb preset %q (have: %s)", r.Perturb, strings.Join(perturb.Presets(), ", "))
		}
	}
	switch {
	case r.Bench == "workload" && r.Workload == nil:
		return fmt.Errorf("bench %q needs a workload spec", "workload")
	case r.Bench != "workload" && r.Workload != nil:
		return fmt.Errorf("workload specs apply to bench %q only, got bench %q", "workload", r.Bench)
	case r.Workload != nil:
		if err := r.Workload.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// fleetSpec builds the runner spec of a fleet request. Perturbation
// presets resolve here; the spec's own Normalize (called by
// FleetCells) applies ladder defaults and the reps/perturb coupling.
func (r *SweepRequest) fleetSpec() (*runner.FleetSpec, error) {
	var prof *perturb.Profile
	if r.Perturb != "" {
		p, err := perturb.Preset(r.Perturb)
		if err != nil {
			return nil, err
		}
		prof = p
	}
	return &runner.FleetSpec{
		Machines:      r.Machines,
		Procs:         r.Procs,
		Seed:          r.Seed,
		Reps:          r.Reps,
		Perturb:       prof,
		PerturbName:   r.Perturb,
		MaxLooplength: r.MaxLooplength,
		InnerReps:     r.InnerReps,
		SkipAnalysis:  r.SkipAnalysis,
		LmaxOverride:  r.LmaxOverride,
	}, nil
}

// tasks expands the request into pool tasks, one per
// (machine, procs, rep) cell, in deterministic axis order. The cache
// is threaded into every task so HTTP-served cells read and repair the
// same .beffcache/ entries as CLI sweeps.
func (r *SweepRequest) tasks(cache *runner.Cache) ([]runner.Task, error) {
	var prof *perturb.Profile
	if r.Perturb != "" {
		p, err := perturb.Preset(r.Perturb)
		if err != nil {
			return nil, err
		}
		prof = p
	}
	tasks := make([]runner.Task, 0, len(r.Machines)*len(r.Procs)*r.Reps)
	for _, key := range r.Machines {
		for _, procs := range r.Procs {
			for rep := 0; rep < r.Reps; rep++ {
				switch r.Bench {
				case "beff":
					opt := core.Options{
						LmaxOverride:  r.LmaxOverride,
						Seed:          r.Seed,
						MaxLooplength: r.MaxLooplength,
						Reps:          r.InnerReps,
						SkipAnalysis:  r.SkipAnalysis,
					}
					cell := runner.RobustBeffCell(key, procs, opt, prof, r.Seed, rep)
					tasks = append(tasks, runner.JSONTask(cell, cache))
				case "beffio":
					opt := beffio.Options{T: des.DurationOf(r.TSeconds)}
					cell := runner.RobustBeffIOCell(key, procs, opt, prof, r.Seed, rep)
					tasks = append(tasks, runner.JSONTask(cell, cache))
				case "workload":
					cell := runner.RobustWorkloadCell(r.Workload, key, procs, prof, r.Seed, rep)
					tasks = append(tasks, runner.JSONTask(cell, cache))
				default:
					return nil, fmt.Errorf("bench %q", r.Bench)
				}
			}
		}
	}
	return tasks, nil
}
