package runner

import (
	"fmt"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/workload"
)

// Prebuilt cells for the two benchmarks, so every command (and future
// ones) gets parallelism and caching from the same few lines. Each cell
// builds its world, network and filesystem inside Run — fresh engine
// per cell, nothing shared.

// beffFingerprint identifies a b_eff cell: the machine (by registry key
// or full declarative config), the partition size, and the benchmark
// options. Together with the cache's code-version salt this is the
// complete input of the simulation.
type beffFingerprint struct {
	Bench   string
	Machine string              `json:",omitempty"`
	Config  *machine.ConfigFile `json:",omitempty"`
	Procs   int
	Options core.Options

	// Perturb and PerturbSeed identify the fault-injection schedule of
	// a perturbed cell. They are omitted when empty, so unperturbed
	// fingerprints — and their cached entries — are unchanged from
	// before perturbation existed.
	Perturb     *perturb.Profile `json:",omitempty"`
	PerturbSeed int64            `json:",omitempty"`
}

// beffioFingerprint identifies a b_eff_io cell likewise. It doubles as
// the fingerprint of custom workload-grammar cells: Workload carries
// the canonicalized AST and is omitted when nil, so classic b_eff_io
// fingerprints — and their cached entries — are byte-identical to the
// pre-grammar era.
type beffioFingerprint struct {
	Bench   string
	Machine string              `json:",omitempty"`
	Config  *machine.ConfigFile `json:",omitempty"`
	Procs   int
	Options beffio.Options

	Workload *workload.Spec `json:",omitempty"`

	Perturb     *perturb.Profile `json:",omitempty"`
	PerturbSeed int64            `json:",omitempty"`
}

// BeffCell measures b_eff on a registered machine profile. The
// MemoryPerProc default resolves from the profile, like beff.MeasureBandwidth.
// It is RobustBeffCell without a perturbation profile.
func BeffCell(machineKey string, procs int, opt core.Options) Cell[*core.Result] {
	return RobustBeffCell(machineKey, procs, opt, nil, 0, 0)
}

// BeffConfigCell measures b_eff on a declarative (JSON-schema) machine
// definition — the cmd/sensitivity case, where each cell perturbs one
// knob of the config. The whole config enters the fingerprint, so any
// knob change is a cache miss.
func BeffConfigCell(key string, cf machine.ConfigFile, procs int, opt core.Options) Cell[*core.Result] {
	return Cell[*core.Result]{
		Key:         key,
		Fingerprint: beffFingerprint{Bench: "beff", Config: &cf, Procs: procs, Options: opt},
		Run: func() (*core.Result, error) {
			p, err := cf.Build()
			if err != nil {
				return nil, err
			}
			if procs > p.MaxProcs {
				procs = p.MaxProcs
			}
			if opt.MemoryPerProc == 0 && opt.LmaxOverride == 0 {
				opt.MemoryPerProc = p.MemoryPerProc
			}
			w, err := p.BuildWorld(procs)
			if err != nil {
				return nil, err
			}
			return core.Run(w, opt)
		},
	}
}

// BeffIOCell measures b_eff_io on a registered machine profile at one
// partition size, against a fresh instance of the profile's filesystem
// (honouring its I/O-placement policy). MPart defaults from the
// profile before fingerprinting, so explicit and defaulted options
// cache identically.
func BeffIOCell(machineKey string, procs int, opt beffio.Options) Cell[*beffio.Result] {
	fp := func() beffioFingerprint {
		if opt.MPart == 0 {
			if p, err := machine.Lookup(machineKey); err == nil {
				opt.MPart = p.MPart()
			}
		}
		return beffioFingerprint{Bench: "beffio", Machine: machineKey, Procs: procs, Options: opt}
	}()
	return Cell[*beffio.Result]{
		Key:         fmt.Sprintf("beffio:%s@%d", machineKey, procs),
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
			return beffio.Run(w, fs, fp.Options)
		},
	}
}
