package runner

import (
	"fmt"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/stats"
)

// Repetition harness: run one benchmark cell N times under a
// perturbation profile, each repetition with its own derived seed, and
// summarise the resulting b_eff distribution. Each repetition is an
// ordinary sweep cell — it parallelises over -j and caches like any
// other cell, and because the perturbation profile and seed are part of
// the cache fingerprint, two repetitions (or two different base seeds)
// can never alias each other's cached results.

// RobustBeffCell is BeffCell with perturbation: repetition rep of a
// b_eff run under the profile, seeded with RepSeed(seed, rep). A nil
// profile degenerates to an unperturbed BeffCell with an unperturbed
// fingerprint, so baseline cells share the cache with plain sweeps.
func RobustBeffCell(machineKey string, procs int, opt core.Options, prof *perturb.Profile, seed int64, rep int) Cell[*core.Result] {
	if prof != nil && !prof.Enabled() {
		prof = nil
	}
	repSeed := perturb.RepSeed(seed, rep)
	fp := beffFingerprint{Bench: "beff", Machine: machineKey, Procs: procs, Options: opt}
	key := fmt.Sprintf("beff:%s@%d", machineKey, procs)
	if prof != nil {
		fp.Perturb = prof
		fp.PerturbSeed = repSeed
		key = fmt.Sprintf("%s/rep%d", key, rep)
	}
	return Cell[*core.Result]{
		Key:         key,
		Fingerprint: fp,
		Run: func() (*core.Result, error) {
			p, err := machine.Lookup(machineKey)
			if err != nil {
				return nil, err
			}
			if opt.MemoryPerProc == 0 && opt.LmaxOverride == 0 {
				opt.MemoryPerProc = p.MemoryPerProc
			}
			w, err := p.BuildWorld(procs)
			if err != nil {
				return nil, err
			}
			prof.ApplyNet(w.Net, repSeed)
			return core.Run(w, opt)
		},
	}
}

// RobustBeffIOCell is the b_eff_io counterpart: the profile applies to
// both the network and the filesystem of the repetition's fresh world.
func RobustBeffIOCell(machineKey string, procs int, opt beffio.Options, prof *perturb.Profile, seed int64, rep int) Cell[*beffio.Result] {
	if prof != nil && !prof.Enabled() {
		prof = nil
	}
	repSeed := perturb.RepSeed(seed, rep)
	if opt.MPart == 0 {
		if p, err := machine.Lookup(machineKey); err == nil {
			opt.MPart = p.MPart()
		}
	}
	fp := beffioFingerprint{Bench: "beffio", Machine: machineKey, Procs: procs, Options: opt}
	key := fmt.Sprintf("beffio:%s@%d", machineKey, procs)
	if prof != nil {
		fp.Perturb = prof
		fp.PerturbSeed = repSeed
		key = fmt.Sprintf("%s/rep%d", key, rep)
	}
	return Cell[*beffio.Result]{
		Key:         key,
		Fingerprint: fp,
		Run: func() (*beffio.Result, error) {
			p, err := machine.Lookup(machineKey)
			if err != nil {
				return nil, err
			}
			w, err := p.BuildIOWorld(procs)
			if err != nil {
				return nil, err
			}
			fs, err := p.BuildFS()
			if err != nil {
				return nil, err
			}
			prof.Apply(w.Net, fs, repSeed)
			return beffio.Run(w, fs, opt)
		},
	}
}

// Robustness is the distribution of a benchmark value over a
// repetition sweep.
type Robustness struct {
	// Values are the per-repetition measurements, in repetition order.
	Values []float64
	// Summary is the spread of Values.
	Summary stats.Robust
	// MaxOverReps is the paper-prescribed reported value: the maximum
	// over repetitions (identical to Summary.Max, named for the
	// protocol).
	MaxOverReps float64
}

// SummarizeReps computes the Robustness of a slice of per-repetition
// values.
func SummarizeReps(values []float64) Robustness {
	s := stats.Describe(values...)
	return Robustness{Values: values, Summary: s, MaxOverReps: s.Max}
}
