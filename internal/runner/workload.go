package runner

import (
	"fmt"

	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/workload"
)

// WorkloadCell runs a custom workload-grammar spec on a registered
// machine profile at one partition size. The canonicalized spec is the
// dominant part of the fingerprint — two requests with byte-different
// JSON but the same canonical AST share a cache entry, and any change
// to the pattern tree is a miss.
func WorkloadCell(spec *workload.Spec, machineKey string, procs int) Cell[*workload.Result] {
	return RobustWorkloadCell(spec, machineKey, procs, nil, 0, 0)
}

// RobustWorkloadCell is WorkloadCell with perturbation, mirroring
// RobustBeffIOCell: repetition rep under the profile, seeded with
// RepSeed(seed, rep), applied to both the network and the filesystem.
// A nil (or disabled) profile degenerates to an unperturbed cell with
// an unperturbed fingerprint.
func RobustWorkloadCell(spec *workload.Spec, machineKey string, procs int, prof *perturb.Profile, seed int64, rep int) Cell[*workload.Result] {
	key, pt := perturbCell(fmt.Sprintf("workload:%s:%s@%d", spec.Name, machineKey, procs), prof, seed, rep)
	return Cell[*workload.Result]{
		Key:         key,
		Fingerprint: beffioFingerprint{Bench: "workload", Machine: machineKey, Procs: procs, Workload: spec, perturbation: pt},
		Run: func() (*workload.Result, error) {
			w, fs, err := ioWorld(machineKey, procs, pt)
			if err != nil {
				return nil, err
			}
			return workload.Run(w, fs, spec)
		},
	}
}
