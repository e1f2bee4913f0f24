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
	kind   byte // 'b' Barrier, 'm' Mark, 's' SendrecvBytes, 'a' AlltoallvBytes, 'r' IrecvBytes, 'i' IsendBytes, 'w' Waitall, 'x' AllreduceInt64, 'c' ScanInt64, 'e' ExscanInt64, 'h' Host
	shift  int  // 's', 'r', 'i': send to rank+shift, receive from rank-shift
	tag    int  // 'x', 'c', 'e': seeds the values
	size   int64
	counts [][]int64      // 'a': counts[i][j] bytes from rank i to rank j
	op     Op             // 'x', 'c', 'e'
	k      int            // 'x', 'c', 'e': values per rank
	sleeps []des.Duration // 'h': the host code's sleeps, from its clock
}

// program is a generated MPI program: its batches, run in order, on n
// ranks of one of the test fabrics.
type program struct {
	n, fabric int
	batches   [][]progOp
}

var fabricNames = []string{"crossbar", "SMP cluster", "torus"}

var opNames = []string{OpSum: "sum", OpMax: "max", OpMin: "min"}

// String lays the program out one batch to a bracket: b and m for
// Barrier and Mark, s, r and i with their shift, tag and size, a for
// an Alltoallv, w for a Waitall, x, c and e for an Allreduce, Scan and
// Exscan with their op, seed and length, h for host code with its
// sleeps.
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
			case 'x', 'c', 'e':
				fmt.Fprintf(&sb, "%s/%d:%d", opNames[op.op], op.tag, op.k)
			case 'h':
				fmt.Fprint(&sb, op.sleeps)
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

// progSleeps are the host code's sleeps: to the current time, and past
// a send overhead and a latency of the test fabrics.
var progSleeps = []des.Duration{0, 1 * des.Microsecond, 2 * des.Microsecond, 7 * des.Microsecond}

// progValues returns a reduction's or scan's values on rank r: small,
// of both signs, and different across ranks and ops.
func progValues(op progOp, r int) []int64 {
	xs := make([]int64, op.k)
	for i := range xs {
		xs[i] = int64((r*7+op.tag*3+i*5)%11 - 5)
	}
	return xs
}

// scanByCalls is ScanInt64, or ExscanInt64 if exclusive, made of
// blocking calls: each recursive-doubling round an Isend, a Recv and a
// Wait, and for an exclusive scan other than OpSum a shift by Send and
// Recv.
func scanByCalls(c *Comm, op Op, xs []int64, exclusive bool) {
	n, k := c.Size(), len(xs)
	orig := slices.Clone(xs)
	partial := slices.Clone(xs)
	sbuf, rbuf := make([]byte, 8*k), make([]byte, 8*k)
	for mask, r := 1, 0; mask < n; mask, r = mask<<1, r+1 {
		var sr *Request
		if dst := c.rank + mask; dst < n {
			encodeInt64s(sbuf, partial)
			sr = c.Isend(dst, tagScan+r, sbuf)
		}
		if src := c.rank - mask; src >= 0 {
			c.Recv(src, tagScan+r, rbuf)
			got := make([]int64, k)
			decodeInt64s(got, rbuf)
			for i := range xs {
				xs[i] = int64(op.combine(false, uint64(got[i]), uint64(xs[i])))
				partial[i] = int64(op.combine(false, uint64(got[i]), uint64(partial[i])))
			}
		}
		if sr != nil {
			c.Wait(sr)
		}
	}
	switch {
	case !exclusive:
	case op == OpSum:
		for i := range xs {
			xs[i] -= orig[i]
		}
	default:
		if c.rank+1 < n {
			encodeInt64s(sbuf, xs)
			c.Send(c.rank+1, tagScan+0xF0, sbuf)
		}
		if c.rank > 0 {
			c.Recv(c.rank-1, tagScan+0xF0, rbuf)
			decodeInt64s(xs, rbuf)
		} else {
			clear(xs)
		}
	}
}

// hostSleeps is host code that sleeps for each of sleeps in turn, from
// its clock, and records the clock at each step.
type hostSleeps struct {
	c      *Comm
	sleeps []des.Duration
	times  *[]des.Time
}

func (h *hostSleeps) HostStep() (des.Time, bool) {
	now := h.c.Time()
	*h.times = append(*h.times, now)
	if len(h.sleeps) == 0 {
		return 0, false
	}
	d := h.sleeps[0]
	h.sleeps = h.sleeps[1:]
	return now.Add(d), true
}

// genProgram builds a program from next, which returns a number in
// [0, k) for next(k).
func genProgram(next func(k int) int) program {
	p := program{n: 2 + next(8), fabric: next(3)}
	size := func() int64 { return progSizes[next(len(progSizes))] }
	for nb := 1 + next(4); nb > 0; nb-- {
		var ops []progOp
		for nc := 1 + next(5); nc > 0; nc-- {
			switch next(7) {
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
			case 3:
				// OpMax takes Exscan's shift path.
				ops = append(ops, progOp{kind: "xce"[next(3)], op: []Op{OpSum, OpMax}[next(2)], tag: next(5), k: 1 + next(3)})
			case 4:
				// Host code: sleeps, an equal-time one among them, or
				// none at all.
				var sleeps []des.Duration
				for k := next(4); k > 0; k-- {
					sleeps = append(sleeps, progSleeps[next(len(progSleeps))])
				}
				ops = append(ops, progOp{kind: 'h', sleeps: sleeps})
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
	hosts    [][]des.Time // per rank: host code's clock readings
	vals     [][]int64    // per rank: reduction and scan results
	err      error
	m        *des.Metrics
}

// runProgram runs p with each operation a blocking call of its own
// (batched false) or with each of p's batches one Batch.
func runProgram(p program, batched bool) progRun {
	out := progRun{
		marks: make([][]des.Time, p.n),
		hosts: make([][]des.Time, p.n),
		vals:  make([][]int64, p.n),
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
		// Fresh counts for every call: a batch reads them when the
		// call posts.
		counts := func(op progOp) ([]int64, []int64) {
			send, recv := make([]int64, n), make([]int64, n)
			for j := 0; j < n; j++ {
				send[j], recv[j] = op.counts[r][j], op.counts[j][r]
			}
			return send, recv
		}
		var pending []*Request
		for _, ops := range p.batches {
			if batched {
				b, marked := c.Batch(), false
				var results [][]int64
				for _, op := range ops {
					switch op.kind {
					case 'x', 'c', 'e':
						xs := progValues(op, r)
						results = append(results, xs)
						switch op.kind {
						case 'x':
							b.AllreduceInt64(op.op, xs)
						case 'c':
							b.ScanInt64(op.op, xs)
						default:
							b.ExscanInt64(op.op, xs)
						}
					case 'h':
						b.Host(&hostSleeps{c: c, sleeps: op.sleeps, times: &out.hosts[r]})
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
				for _, xs := range results {
					out.vals[r] = append(out.vals[r], xs...)
				}
				continue
			}
			for _, op := range ops {
				switch op.kind {
				case 'x', 'c', 'e':
					xs := progValues(op, r)
					if op.kind == 'x' {
						Allreduce(c, op.op, xs)
					} else {
						scanByCalls(c, op.op, xs, op.kind == 'e')
					}
					out.vals[r] = append(out.vals[r], xs...)
				case 'h':
					p := c.Proc()
					for _, d := range op.sleeps {
						out.hosts[r] = append(out.hosts[r], p.Now())
						p.SleepUntil(p.Now().Add(d))
					}
					out.hosts[r] = append(out.hosts[r], p.Now())
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
		if !slices.Equal(got.hosts[r], want.hosts[r]) {
			t.Fatalf("%v: rank %d host steps at %v batched, %v per call", p, r, got.hosts[r], want.hosts[r])
		}
		if !slices.Equal(got.vals[r], want.vals[r]) {
			t.Fatalf("%v: rank %d values %v batched, %v per call", p, r, got.vals[r], want.vals[r])
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
// programs of Barrier, SendrecvBytes, AlltoallvBytes,
// IrecvBytes/IsendBytes/Waitall groups, int64 Allreduce, Scan and
// Exscan (OpSum, and OpMax for Exscan's shift) and host code that
// sleeps, at eager and rendezvous sizes, on 2 to 9 ranks of a crossbar,
// an SMP cluster and a torus, run once as blocking calls (the scans as
// Isend, Recv and Wait rounds, host code as SleepUntil calls) and once
// with each batch of calls one Batch. Both runs must send and match the
// same messages at the same times, advance the clock alike, see the
// same times at every Mark and host step, compute the same values and
// pop the run queue as often; the batches must resume the ranks less
// often.
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
