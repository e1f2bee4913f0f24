package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/simnet"
)

// progOp is one operation of a generated program. Every rank runs the
// same program: peers are ring shifts of the rank, so each send has its
// receive.
type progOp struct {
	kind   byte // 'b' Barrier, 'm' Mark, 's' SendrecvBytes, 'a' AlltoallvBytes, 'r' IrecvBytes, 'i' IsendBytes, 'w' Waitall
	shift  int  // 's', 'r', 'i': send to rank+shift, receive from rank-shift
	tag    int
	size   int64
	counts [][]int64 // 'a': counts[i][j] bytes from rank i to rank j
}

// program is a generated MPI program: its batches, run in order, on n
// ranks of one of the test fabrics.
type program struct {
	n, fabric int
	batches   [][]progOp
}

var fabricNames = []string{"crossbar", "SMP cluster", "torus"}

// String lays the program out one batch to a bracket: b and m for
// Barrier and Mark, s, r and i with their shift, tag and size, a for
// an Alltoallv, w for a Waitall.
func (p program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d ranks on the %s:", p.n, fabricNames[p.fabric])
	for _, ops := range p.batches {
		sb.WriteString(" [")
		for i, op := range ops {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte(op.kind)
			switch op.kind {
			case 's', 'i':
				fmt.Fprintf(&sb, "%+d/%d:%d", op.shift, op.tag, op.size)
			case 'r':
				fmt.Fprintf(&sb, "%+d/%d", op.shift, op.tag)
			case 'a':
				fmt.Fprint(&sb, op.counts)
			}
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// progEagerLimit is the programs' eager/rendezvous switch point; the
// sizes straddle it.
const progEagerLimit = 4096

var progSizes = []int64{0, 1, 100, progEagerLimit, progEagerLimit + 1, 20000}

// genProgram builds a program from next, which returns a number in
// [0, k) for next(k).
func genProgram(next func(k int) int) program {
	p := program{n: 2 + next(8), fabric: next(3)}
	size := func() int64 { return progSizes[next(len(progSizes))] }
	for nb := 1 + next(4); nb > 0; nb-- {
		var ops []progOp
		for nc := 1 + next(5); nc > 0; nc-- {
			switch next(4) {
			case 0:
				ops = append(ops, progOp{kind: 'b'})
			case 1:
				ops = append(ops, progOp{kind: 's', shift: 1 + next(p.n-1), tag: next(3), size: size()})
			case 2:
				counts := make([][]int64, p.n)
				for i := range counts {
					counts[i] = make([]int64, p.n)
					for j := range counts[i] {
						if next(2) == 0 {
							counts[i][j] = size()
						}
					}
				}
				ops = append(ops, progOp{kind: 'a', counts: counts})
			default:
				// A nonblocking group: receives and sends in a shuffled
				// order, then their Waitall.
				var posts []progOp
				for k := 1 + next(3); k > 0; k-- {
					shift, tag := 1+next(p.n-1), len(posts)
					posts = append(posts,
						progOp{kind: 'r', shift: shift, tag: tag},
						progOp{kind: 'i', shift: shift, tag: tag, size: size()})
				}
				for i := len(posts) - 1; i > 0; i-- {
					j := next(i + 1)
					posts[i], posts[j] = posts[j], posts[i]
				}
				ops = append(append(ops, posts...), progOp{kind: 'w'})
			}
		}
		if next(4) > 0 {
			ops = slices.Insert(ops, next(len(ops)+1), progOp{kind: 'm'})
		}
		p.batches = append(p.batches, ops)
	}
	return p
}

// progNet builds the program's fabric: a crossbar, an SMP cluster of
// three 3-way nodes, or a 2x2x3 torus.
func progNet(fabric int) *simnet.Net {
	cfg := simnet.Config{
		TxBandwidth:      100 * MB,
		RxBandwidth:      100 * MB,
		SendOverhead:     2 * des.Microsecond,
		RecvOverhead:     1 * des.Microsecond,
		MemCopyBandwidth: 1000 * MB,
	}
	switch fabric {
	case 0:
		cfg.Fabric = simnet.NewCrossbar(9, 0, 1*des.Microsecond)
	case 1:
		cfg.Fabric = simnet.NewSMPCluster(simnet.SMPClusterConfig{
			Nodes: 3, ProcsPerNode: 3,
			BusBandwidth:     400 * MB,
			AdapterBandwidth: 50 * MB,
			IntraLatency:     1 * des.Microsecond,
			InterLatency:     7 * des.Microsecond,
		})
	default:
		cfg.Fabric = simnet.NewTorus3D(2, 2, 3, 80*MB, 1*des.Microsecond, 300*des.Nanosecond)
	}
	return simnet.New(cfg)
}

// progRun is what one run of a program shows.
type progRun struct {
	events   []string     // sends and matches, in order
	advances []string     // clock advances, in order
	marks    [][]des.Time // per rank
	err      error
	m        *des.Metrics
}

// runProgram runs p with each operation a blocking call of its own
// (batched false) or with each of p's batches one Batch.
func runProgram(p program, batched bool) progRun {
	out := progRun{
		marks: make([][]des.Time, p.n),
		m:     &des.Metrics{Dispatches: new(obs.Counter), Resumes: new(obs.Counter)},
	}
	cfg := WorldConfig{Net: progNet(p.fabric), Procs: p.n, EagerLimit: progEagerLimit}
	event := func(kind string) func(src, dst int, size int64, at des.Time) {
		return func(src, dst int, size int64, at des.Time) {
			out.events = append(out.events, fmt.Sprintf("%s %d>%d %d @%d", kind, src, dst, size, at))
		}
	}
	cfg.Observe(Observer{
		OnSend:  event("send"),
		OnMatch: event("match"),
		OnEngine: func(e *des.Engine) {
			e.SetMetrics(out.m)
			e.OnAdvance(func(from, to des.Time) {
				out.advances = append(out.advances, fmt.Sprintf("%d>%d", from, to))
			})
		},
	})
	out.err = Run(cfg, func(c *Comm) {
		r, n := c.Rank(), c.Size()
		send, recv := make([]int64, n), make([]int64, n)
		counts := func(op progOp) ([]int64, []int64) {
			for j := 0; j < n; j++ {
				send[j], recv[j] = op.counts[r][j], op.counts[j][r]
			}
			return send, recv
		}
		var pending []*Request
		for _, ops := range p.batches {
			if batched {
				b, marked := c.Batch(), false
				for _, op := range ops {
					switch op.kind {
					case 'b':
						b.Barrier()
					case 'm':
						b.Mark()
						marked = true
					case 's':
						b.SendrecvBytes((r+op.shift)%n, op.tag, op.size, (r-op.shift+n)%n, op.tag)
					case 'a':
						b.AlltoallvBytes(counts(op))
					case 'r':
						b.IrecvBytes((r-op.shift+n)%n, op.tag)
					case 'i':
						b.IsendBytes((r+op.shift)%n, op.tag, op.size)
					case 'w':
						b.Waitall()
					}
				}
				if t := b.Run(); marked {
					out.marks[r] = append(out.marks[r], t)
				}
				continue
			}
			for _, op := range ops {
				switch op.kind {
				case 'b':
					c.Barrier()
				case 'm':
					out.marks[r] = append(out.marks[r], c.Time())
				case 's':
					c.SendrecvBytes((r+op.shift)%n, op.tag, op.size, (r-op.shift+n)%n, op.tag)
				case 'a':
					c.AlltoallvBytes(counts(op))
				case 'r':
					pending = append(pending, c.IrecvBytes((r-op.shift+n)%n, op.tag))
				case 'i':
					pending = append(pending, c.IsendBytes((r+op.shift)%n, op.tag, op.size))
				case 'w':
					c.Waitall(pending)
					pending = pending[:0]
				}
			}
		}
	})
	return out
}

// checkBatchMatchesCalls runs p both ways and fails t unless the batch
// run gives the per-call run's messages, clock advances, marks, error
// and dispatches, with no more resumes. It returns both resume counts.
func checkBatchMatchesCalls(t *testing.T, p program) (calls, batches int64) {
	t.Helper()
	want, got := runProgram(p, false), runProgram(p, true)
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%v: error %v batched, %v per call", p, got.err, want.err)
	}
	if i := firstDiff(got.events, want.events); i >= 0 {
		t.Fatalf("%v: message %d differs: batched %v, per call %v", p, i, at(got.events, i), at(want.events, i))
	}
	if i := firstDiff(got.advances, want.advances); i >= 0 {
		t.Fatalf("%v: clock advance %d differs: batched %v, per call %v", p, i, at(got.advances, i), at(want.advances, i))
	}
	for r := range want.marks {
		if !slices.Equal(got.marks[r], want.marks[r]) {
			t.Fatalf("%v: rank %d marks %v batched, %v per call", p, r, got.marks[r], want.marks[r])
		}
	}
	if g, w := got.m.Dispatches.Value(), want.m.Dispatches.Value(); g != w {
		t.Fatalf("%v: %d dispatches batched, %d per call", p, g, w)
	}
	calls, batches = want.m.Resumes.Value(), got.m.Resumes.Value()
	if batches > calls {
		t.Fatalf("%v: %d resumes batched, more than the %d per call", p, batches, calls)
	}
	return calls, batches
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return "(none)"
}

// TestBatchMatchesCalls is the differential test of Batch: generated
// programs of Barrier, SendrecvBytes, AlltoallvBytes and
// IrecvBytes/IsendBytes/Waitall groups, at eager and rendezvous sizes,
// on 2 to 9 ranks of a crossbar, an SMP cluster and a torus, run once
// as blocking calls and once with each batch of calls one Batch. Both
// runs must send and match the same messages at the same times, advance
// the clock alike, see the same times at every Mark and pop the run
// queue as often; the batches must resume the ranks less often.
func TestBatchMatchesCalls(t *testing.T) {
	rng := uint64(7)
	next := func(k int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % k
	}
	var calls, batches int64
	fabrics := make([]int, 3)
	for k := 0; k < 150; k++ {
		p := genProgram(next)
		fabrics[p.fabric]++
		c, b := checkBatchMatchesCalls(t, p)
		calls, batches = calls+c, batches+b
	}
	if batches >= calls {
		t.Errorf("%d resumes batched, %d per call: batching saved none", batches, calls)
	}
	if slices.Contains(fabrics, 0) {
		t.Errorf("programs per fabric %v: a fabric went untested", fabrics)
	}
}

// FuzzBatchMatchesCalls is TestBatchMatchesCalls over programs built
// from the fuzzer's bytes.
func FuzzBatchMatchesCalls(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 3, 3, 1, 4, 5, 0, 2, 9, 3, 3, 1, 8})
	f.Add([]byte("batch of calls, eager and rendezvous"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % k
		}
		checkBatchMatchesCalls(t, genProgram(next))
	})
}

// TestBatchMisuseFails: a blocking call between Batch and Run reuses
// the rank's waiter, and so does Run; using the batch afterwards fails
// the rank instead of running what was left behind.
func TestBatchMisuseFails(t *testing.T) {
	for name, misuse := range map[string]func(c *Comm){
		"call before Run": func(c *Comm) {
			b := c.Batch()
			b.Barrier()
			c.Barrier()
			b.Run()
		},
		"use after Run": func(c *Comm) {
			b := c.Batch()
			b.Barrier()
			b.Run()
			b.Barrier()
		},
	} {
		err := Run(WorldConfig{Net: testNet(2)}, misuse)
		want := "des: rank 0 panicked: mpi: batch used after its Run or another blocking call or batch began"
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}
