package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simfs"
)

// simInput is what one simulation consumes: a fresh world, and for
// b_eff_io a fresh filesystem.
type simInput struct {
	w  mpi.WorldConfig
	fs *simfs.FS
}

// simBench runs one simulation per operation, each in a world of its
// own. Building the world is the set-up; the simulation call is the
// timed operation.
type simBench struct {
	build func() (simInput, error)
	// sim runs the simulation; with a tracer it first binds the
	// instruments that live in the options rather than the world.
	sim   func(in simInput, tr *tracer) (any, error)
	audit func(ck *check.Checker, res any)

	next *simInput // built by the last set-up, consumed by the next operation
	out  []byte    // the first operation's result bytes
}

// openBeff is the paper's b_eff (§2) on the 3-D torus: 64 ranks, the
// additional analysis patterns on, sequential engine.
func openBeff(cfg config) (bench, error) {
	key, procs, opt := "t3e", 64, core.Options{Seed: cfg.seed, MaxLooplength: 4, Reps: 1}
	if cfg.small {
		procs, opt.MaxLooplength, opt.SkipAnalysis = 8, 2, true
	}
	p, err := machine.Lookup(key)
	if err != nil {
		return nil, err
	}
	opt.MemoryPerProc = p.MemoryPerProc
	return &simBench{
		build: func() (simInput, error) {
			w, err := p.BuildWorld(procs)
			return simInput{w: w}, err
		},
		sim: func(in simInput, _ *tracer) (any, error) { return core.Run(in.w, opt) },
		audit: func(ck *check.Checker, res any) {
			ck.VerifyBeff(res.(*core.Result))
		},
	}, nil
}

// openBeffIO is the paper's b_eff_io (§3): the 36 patterns of Table 2
// under write, rewrite and read, 16 ranks, T = 20 virtual seconds. The
// inputs are fixed by the paper, so the seed does not change them.
func openBeffIO(cfg config) (bench, error) {
	key, procs, t := "t3e", 16, 20.0
	if cfg.small {
		procs, t = 4, 0.2
	}
	p, err := machine.Lookup(key)
	if err != nil {
		return nil, err
	}
	return &simBench{
		build: func() (simInput, error) {
			w, err := p.BuildIOWorld(procs)
			if err != nil {
				return simInput{}, err
			}
			fs, err := p.BuildFS()
			return simInput{w: w, fs: fs}, err
		},
		sim: func(in simInput, tr *tracer) (any, error) {
			opt := beffio.Options{T: des.DurationOf(t), MPart: p.MPart()}
			if tr != nil {
				cli.NewObs(tr.reg).InstrumentIO(&opt.Info)
			}
			return beffio.Run(in.w, in.fs, opt)
		},
		audit: func(ck *check.Checker, res any) {
			ck.VerifyBeffIO(res.(*beffio.Result))
		},
	}, nil
}

func (b *simBench) setup() (time.Duration, error) {
	start := time.Now()
	in, err := b.build()
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	b.next = &in
	return d, nil
}

func (b *simBench) warmUp(t *tally) error { return b.run(time.Now(), nil, t) }

func (b *simBench) run(until time.Time, tr *tracer, t *tally) error {
	for {
		if _, err := b.setup(); err != nil {
			return err
		}
		in := *b.next
		b.next = nil
		if tr != nil {
			o := cli.NewObs(tr.reg)
			o.InstrumentWorld(&in.w)
			o.InstrumentNet(in.w.Net)
			o.InstrumentFS(in.fs)
		}
		start := time.Now()
		res, err := b.sim(in, tr)
		d := time.Since(start)
		if err == nil {
			err = b.check(res)
		}
		t.addOp(d, err)
		if !time.Now().Before(until) {
			return nil
		}
	}
}

// check audits one result's reductions and requires it to be byte-equal
// to the first operation's.
func (b *simBench) check(res any) error {
	ck := check.New()
	b.audit(ck, res)
	if err := ck.Err(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if b.out == nil {
		b.out = data
	} else if !bytes.Equal(data, b.out) {
		return fmt.Errorf("result differs from the first operation's (sha256 %s, want %s)", digest(data), digest(b.out))
	}
	return nil
}

func (b *simBench) output() []byte { return b.out }

func (b *simBench) close() error { return nil }
