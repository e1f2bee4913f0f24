package runner

import (
	"fmt"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/simfs"
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
	key, pt := perturbCell(fmt.Sprintf("beff:%s@%d", machineKey, procs), prof, seed, rep)
	return Cell[*core.Result]{
		Key:         key,
		Fingerprint: beffFingerprint{Bench: "beff", Machine: machineKey, Procs: procs, Options: opt, perturbation: pt},
		Run: func() (*core.Result, error) {
			p, err := machine.Lookup(machineKey)
			if err != nil {
				return nil, err
			}
			return runBeff(p, procs, opt, pt)
		},
	}
}

// RobustBeffIOCell is the b_eff_io counterpart: the profile applies to
// both the network and the filesystem of the repetition's fresh world.
func RobustBeffIOCell(machineKey string, procs int, opt beffio.Options, prof *perturb.Profile, seed int64, rep int) Cell[*beffio.Result] {
	if opt.MPart == 0 {
		if p, err := machine.Lookup(machineKey); err == nil {
			opt.MPart = p.MPart()
		}
	}
	key, pt := perturbCell(fmt.Sprintf("beffio:%s@%d", machineKey, procs), prof, seed, rep)
	return Cell[*beffio.Result]{
		Key:         key,
		Fingerprint: beffioFingerprint{Bench: "beffio", Machine: machineKey, Procs: procs, Options: opt, perturbation: pt},
		Run: func() (*beffio.Result, error) {
			w, fs, err := ioWorld(machineKey, procs, pt)
			if err != nil {
				return nil, err
			}
			return beffio.Run(w, fs, opt)
		},
	}
}

// perturbation identifies a perturbed cell's fault-injection schedule
// in its fingerprint. Both fields are omitted when empty, so
// unperturbed fingerprints — and their cached entries — are unchanged
// from before perturbation existed. A nil Perturb applies nothing.
type perturbation struct {
	Perturb     *perturb.Profile `json:",omitempty"`
	PerturbSeed int64            `json:",omitempty"`
}

// perturbCell is the prologue of every perturbable cell: a disabled
// profile counts as none, and a perturbed cell's key gets a /rep
// suffix and its fingerprint the profile and RepSeed(seed, rep).
func perturbCell(key string, prof *perturb.Profile, seed int64, rep int) (string, perturbation) {
	if prof == nil || !prof.Enabled() {
		return key, perturbation{}
	}
	return fmt.Sprintf("%s/rep%d", key, rep), perturbation{Perturb: prof, PerturbSeed: perturb.RepSeed(seed, rep)}
}

// ioWorld builds the fresh world and filesystem of an I/O cell on a
// registered profile, with pt applied to both.
func ioWorld(machineKey string, procs int, pt perturbation) (mpi.WorldConfig, *simfs.FS, error) {
	p, err := machine.Lookup(machineKey)
	if err != nil {
		return mpi.WorldConfig{}, nil, err
	}
	w, err := p.BuildIOWorld(procs)
	if err != nil {
		return mpi.WorldConfig{}, nil, err
	}
	fs, err := p.BuildFS()
	if err != nil {
		return mpi.WorldConfig{}, nil, err
	}
	pt.Perturb.Apply(w.Net, fs, pt.PerturbSeed)
	return w, fs, nil
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
