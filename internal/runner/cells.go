package runner

import (
	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
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

	perturbation
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

	perturbation
}

// BeffCell measures b_eff on a registered machine profile. The
// MemoryPerProc default resolves from the profile.
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
			return runBeff(p, procs, opt, perturbation{})
		},
	}
}

// runBeff is the b_eff body of every b_eff cell: MemoryPerProc
// defaults from the profile, the world is built fresh, and pt perturbs
// its network.
func runBeff(p *machine.Profile, procs int, opt core.Options, pt perturbation) (*core.Result, error) {
	if opt.MemoryPerProc == 0 && opt.LmaxOverride == 0 {
		opt.MemoryPerProc = p.MemoryPerProc
	}
	w, err := p.BuildWorld(procs)
	if err != nil {
		return nil, err
	}
	pt.Perturb.ApplyNet(w.Net, pt.PerturbSeed)
	return core.Run(w, opt)
}

// BeffIOCell measures b_eff_io on a registered machine profile at one
// partition size, against a fresh instance of the profile's filesystem
// (honouring its I/O-placement policy). MPart defaults from the
// profile before fingerprinting, so explicit and defaulted options
// cache identically. It is RobustBeffIOCell without a perturbation
// profile.
func BeffIOCell(machineKey string, procs int, opt beffio.Options) Cell[*beffio.Result] {
	return RobustBeffIOCell(machineKey, procs, opt, nil, 0, 0)
}
