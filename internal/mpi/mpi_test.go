package mpi

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/simnet"
)

const MB = 1e6

func testNet(n int) *simnet.Net {
	return simnet.New(simnet.Config{
		Fabric:           simnet.NewCrossbar(n, 0, 1*des.Microsecond),
		TxBandwidth:      100 * MB,
		RxBandwidth:      100 * MB,
		SendOverhead:     2 * des.Microsecond,
		RecvOverhead:     2 * des.Microsecond,
		MemCopyBandwidth: 1000 * MB,
	})
}

func run(t *testing.T, n int, body func(c *Comm)) {
	t.Helper()
	if err := Run(WorldConfig{Net: testNet(n)}, body); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvData(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello mpi"))
		} else {
			buf := make([]byte, 16)
			st := c.Recv(0, 7, buf)
			if st.Source != 0 || st.Tag != 7 || st.Size != 9 {
				t.Errorf("status = %+v", st)
			}
			if string(buf[:st.Size]) != "hello mpi" {
				t.Errorf("payload = %q", buf[:st.Size])
			}
		}
	})
}

func TestSendRecvTiming(t *testing.T) {
	// Eager 1kB: sender free after overhead+injection; receiver gets it
	// after wire latency + recv overhead.
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendBytes(1, 0, 1000)
			// 2us overhead + 10us injection at 100 MB/s.
			if c.Time() != des.Time(12*des.Microsecond) {
				t.Errorf("sender free at %v, want 12us", c.Time())
			}
		} else {
			c.RecvBytes(0, 0)
			// + 1us latency + 2us recv overhead.
			if c.Time() != des.Time(15*des.Microsecond) {
				t.Errorf("receiver done at %v, want 15us", c.Time())
			}
		}
	})
}

func TestEagerSenderDoesNotWaitForReceiver(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendBytes(1, 0, 512)
			if c.Time() >= des.Time(des.Millisecond) {
				t.Errorf("eager send blocked until receiver: %v", c.Time())
			}
		} else {
			c.Proc().Sleep(5 * des.Millisecond) // receiver is late
			c.RecvBytes(0, 0)
		}
	})
}

func TestRendezvousSenderWaitsForReceiver(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendBytes(1, 0, 1_000_000) // above eager limit
			if c.Time() < des.Time(5*des.Millisecond) {
				t.Errorf("rendezvous send completed before receiver posted: %v", c.Time())
			}
		} else {
			c.Proc().Sleep(5 * des.Millisecond)
			c.RecvBytes(0, 0)
		}
	})
}

func TestRendezvousCarriesData(t *testing.T) {
	big := make([]byte, 100_000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, big)
		} else {
			buf := make([]byte, len(big))
			c.Recv(0, 3, buf)
			for i := range buf {
				if buf[i] != byte(i*31) {
					t.Fatalf("payload corrupted at %d", i)
				}
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			var froms []int
			for i := 0; i < 2; i++ {
				st := c.RecvBytes(AnySource, AnyTag)
				froms = append(froms, st.Source)
			}
			if len(froms) != 2 || froms[0] == froms[1] {
				t.Errorf("froms = %v", froms)
			}
		default:
			c.SendBytes(0, 10+c.Rank(), 64)
		}
	})
}

func TestPerPairFIFOOrdering(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		} else {
			buf := make([]byte, 1)
			for i := 0; i < 10; i++ {
				c.Recv(0, 5, buf)
				if buf[0] != byte(i) {
					t.Fatalf("message %d arrived out of order (got %d)", i, buf[0])
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte{1})
			c.Send(1, 2, []byte{2})
		} else {
			buf := make([]byte, 1)
			c.Recv(0, 2, buf) // skip over tag-1 message
			if buf[0] != 2 {
				t.Errorf("tag 2 recv got %d", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 recv got %d", buf[0])
			}
		}
	})
}

func TestTruncationFails(t *testing.T) {
	err := Run(WorldConfig{Net: testNet(2)}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
		} else {
			c.Recv(0, 0, make([]byte, 10))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestProcNullOps(t *testing.T) {
	run(t, 1, func(c *Comm) {
		before := c.Time()
		c.SendBytes(ProcNull, 0, 1<<20)
		st := c.RecvBytes(ProcNull, 0)
		if st.Source != ProcNull {
			t.Errorf("ProcNull recv source = %d", st.Source)
		}
		if c.Time() != before {
			t.Errorf("ProcNull ops should cost nothing, took %v", c.Time().Sub(before))
		}
	})
}

func TestSendrecvRingNoDeadlock(t *testing.T) {
	const n = 16
	run(t, n, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		// Everyone sends a large (rendezvous) message around the ring
		// simultaneously: only safe because Sendrecv overlaps.
		c.SendrecvBytes(right, 1, 100_000, left, 1)
	})
}

func TestBlockingRendezvousCycleDeadlocks(t *testing.T) {
	err := Run(WorldConfig{Net: testNet(2)}, func(c *Comm) {
		other := 1 - c.Rank()
		c.SendBytes(other, 0, 1_000_000) // both block in rendezvous
		c.RecvBytes(other, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock, got %v", err)
	}
}

func TestWaitallNonblockingOverlap(t *testing.T) {
	// Nonblocking ring exchange: post all, then waitall.
	const n = 8
	run(t, n, func(c *Comm) {
		right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		var reqs []*Request
		reqs = append(reqs, c.IrecvBytes(left, 0), c.IrecvBytes(right, 1))
		reqs = append(reqs, c.IsendBytes(right, 0, 50_000), c.IsendBytes(left, 1, 50_000))
		c.Waitall(reqs)
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 7
	var after [n]des.Time
	run(t, n, func(c *Comm) {
		c.Proc().Sleep(des.Duration(c.Rank()) * des.Millisecond)
		c.Barrier()
		after[c.Rank()] = c.Time()
	})
	latest := des.Time((n - 1) * int64(des.Millisecond))
	for r, tm := range after {
		if tm < latest {
			t.Errorf("rank %d left barrier at %v, before last entry %v", r, tm, latest)
		}
	}
}

func TestBcastDeliversData(t *testing.T) {
	const n = 13
	run(t, n, func(c *Comm) {
		buf := make([]byte, 32)
		if c.Rank() == 4 {
			copy(buf, "broadcast payload")
		}
		c.Bcast(4, buf)
		if string(buf[:17]) != "broadcast payload" {
			t.Errorf("rank %d got %q", c.Rank(), buf[:17])
		}
	})
}

func TestBcastInt64AllRoots(t *testing.T) {
	const n = 5
	for root := 0; root < n; root++ {
		root := root
		run(t, n, func(c *Comm) {
			xs := make([]int64, 3)
			if c.Rank() == root {
				xs[0], xs[1], xs[2] = 7, -9, 1<<40
			}
			c.BcastInt64(root, xs)
			if xs[0] != 7 || xs[1] != -9 || xs[2] != 1<<40 {
				t.Errorf("root %d rank %d got %v", root, c.Rank(), xs)
			}
		})
	}
}

func TestReduceSum(t *testing.T) {
	const n = 9
	run(t, n, func(c *Comm) {
		mine := float64(c.Rank() + 1)
		got := []float64{mine}
		Reduce(c, 2, OpSum, got)
		if c.Rank() == 2 {
			want := float64(n * (n + 1) / 2)
			if got[0] != want {
				t.Errorf("sum = %v, want %v", got[0], want)
			}
		} else if got[0] != mine {
			t.Errorf("non-root's input changed to %v", got)
		}
	})
}

func TestAllreduceMinMax(t *testing.T) {
	const n = 6
	run(t, n, func(c *Comm) {
		mx := AllreduceValue(c, OpMax, float64(c.Rank()))
		mn := AllreduceValue(c, OpMin, float64(c.Rank()))
		if mx != float64(n-1) || mn != 0 {
			t.Errorf("rank %d: max=%v min=%v", c.Rank(), mx, mn)
		}
	})
}

func TestAllreduceInt64LargeValues(t *testing.T) {
	run(t, 4, func(c *Comm) {
		v := int64(1)<<60 + int64(c.Rank())
		if got := AllreduceValue(c, OpMax, v); got != int64(1)<<60+3 {
			t.Errorf("got %d", got)
		}
	})
}

func TestGatherInt64(t *testing.T) {
	const n = 5
	run(t, n, func(c *Comm) {
		out := c.GatherInt64(1, []int64{int64(c.Rank() * 10), int64(c.Rank())})
		if c.Rank() == 1 {
			for r := 0; r < n; r++ {
				if out[2*r] != int64(r*10) || out[2*r+1] != int64(r) {
					t.Errorf("gather block %d = %v", r, out[2*r:2*r+2])
				}
			}
		} else if out != nil {
			t.Error("non-root should get nil")
		}
	})
}

func TestAlltoallvSparseRing(t *testing.T) {
	const n = 8
	run(t, n, func(c *Comm) {
		send := make([]int64, n)
		recv := make([]int64, n)
		right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		send[right], send[left] = 4096, 4096
		recv[left], recv[right] = 4096, 4096
		c.AlltoallvBytes(send, recv)
	})
}

func TestAlltoallvFull(t *testing.T) {
	const n = 5
	run(t, n, func(c *Comm) {
		send := make([]int64, n)
		recv := make([]int64, n)
		for i := range send {
			send[i], recv[i] = 1000, 1000
		}
		c.AlltoallvBytes(send, recv)
	})
}

func TestSplitGroupsAndIsolation(t *testing.T) {
	const n = 6
	run(t, n, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Errorf("sub rank = %d, want %d", sub.Rank(), want)
		}
		// Traffic on sub must not interfere with world traffic of the
		// same tag: exchange on both simultaneously.
		if sub.Size() > 1 {
			r, l := (sub.Rank()+1)%sub.Size(), (sub.Rank()-1+sub.Size())%sub.Size()
			sub.SendrecvBytes(r, 9, 100, l, 9)
		}
		wr, wl := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		c.SendrecvBytes(wr, 9, 100, wl, 9)
	})
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	run(t, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("rank 3 should be excluded")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d, want 3", sub.Size())
		}
	})
}

func TestSplitKeyReversesOrder(t *testing.T) {
	const n = 4
	run(t, n, func(c *Comm) {
		sub := c.Split(0, -c.Rank())
		if want := n - 1 - c.Rank(); sub.Rank() != want {
			t.Errorf("rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), want)
		}
	})
}

func TestGroupRankOfPermutedSplit(t *testing.T) {
	// Split communicators whose order differs from the world's: some
	// world ranks keep their index, some move, some are not members.
	// groupRankOf must agree with a scan of the group, and a receive
	// from AnySource must report the sender's rank in the split.
	const n = 6
	keys := []int{0, 2, 1, 3, 5, 4} // world ranks 0 and 3 keep their index
	run(t, n, func(c *Comm) {
		for _, sub := range []*Comm{c.Split(0, keys[c.Rank()]), c.Split(c.Rank()%2, -c.Rank())} {
			for w := 0; w <= n; w++ {
				want := -1
				for i, m := range sub.group {
					if m == w {
						want = i
					}
				}
				if got := sub.groupRankOf(w); got != want {
					t.Errorf("group %v: groupRankOf(%d) = %d, want %d", sub.group, w, got, want)
				}
			}
			right, left := (sub.Rank()+1)%sub.Size(), (sub.Rank()-1+sub.Size())%sub.Size()
			if st := sub.SendrecvBytes(right, 5, 8, AnySource, 5); st.Source != left {
				t.Errorf("group %v, rank %d: source %d, want %d", sub.group, sub.Rank(), st.Source, left)
			}
		}
	})
}

func TestCartCoordsRankRoundTrip(t *testing.T) {
	run(t, 12, func(c *Comm) {
		cart := NewCart(c, []int{3, 4}, []bool{true, true})
		for r := 0; r < 12; r++ {
			if got := cart.RankOf(cart.Coords(r)); got != r {
				t.Errorf("round trip %d → %d", r, got)
			}
		}
	})
}

func TestCartShiftPeriodic(t *testing.T) {
	run(t, 6, func(c *Comm) {
		cart := NewCart(c, []int{2, 3}, []bool{true, true})
		if cart.Rank() == 0 {
			src, dst := cart.Shift(1, 1) // along the fast dimension
			if dst != 1 || src != 2 {
				t.Errorf("shift dim1: src=%d dst=%d, want 2,1", src, dst)
			}
			src, dst = cart.Shift(0, 1)
			if dst != 3 || src != 3 {
				t.Errorf("shift dim0: src=%d dst=%d, want 3,3", src, dst)
			}
		}
	})
}

func TestCartShiftNonPeriodicEdge(t *testing.T) {
	run(t, 4, func(c *Comm) {
		cart := NewCart(c, []int{4}, []bool{false})
		src, dst := cart.Shift(0, 1)
		if cart.Rank() == 3 && dst != ProcNull {
			t.Errorf("rank 3 dst = %d, want ProcNull", dst)
		}
		if cart.Rank() == 0 && src != ProcNull {
			t.Errorf("rank 0 src = %d, want ProcNull", src)
		}
		// Stencil exchange with null boundaries must not hang.
		c2 := cart
		var reqs []*Request
		reqs = append(reqs, c2.IrecvBytes(src, 0), c2.IsendBytes(dst, 0, 100))
		c2.Waitall(reqs)
	})
}

func TestCartExcessRanksGetNil(t *testing.T) {
	run(t, 5, func(c *Comm) {
		cart := NewCart(c, []int{2, 2}, []bool{true, true})
		if c.Rank() == 4 {
			if cart != nil {
				t.Error("rank 4 should get nil cart")
			}
		} else if cart == nil {
			t.Errorf("rank %d should be in the cart", c.Rank())
		}
	})
}

func TestDimsCreateProperties(t *testing.T) {
	f := func(nRaw uint8, dRaw uint8) bool {
		n := int(nRaw)%512 + 1
		nd := int(dRaw)%3 + 1
		dims := DimsCreate(n, nd)
		if len(dims) != nd {
			return false
		}
		prod := 1
		for i, d := range dims {
			if d < 1 {
				return false
			}
			if i > 0 && dims[i] > dims[i-1] {
				return false // must be non-increasing
			}
			prod *= d
		}
		return prod == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDimsCreateBalanced(t *testing.T) {
	cases := []struct {
		n, nd int
		want  string
	}{
		{16, 2, "[4 4]"},
		{64, 3, "[4 4 4]"},
		{12, 2, "[4 3]"},
		{17, 2, "[17 1]"},
		{24, 3, "[4 3 2]"},
	}
	for _, cse := range cases {
		if got := fmt.Sprint(DimsCreate(cse.n, cse.nd)); got != cse.want {
			t.Errorf("DimsCreate(%d,%d) = %v, want %v", cse.n, cse.nd, got, cse.want)
		}
	}
}

func TestWtimeMonotone(t *testing.T) {
	run(t, 2, func(c *Comm) {
		t0 := c.Wtime()
		c.Barrier()
		t1 := c.Wtime()
		if t1 < t0 {
			t.Errorf("Wtime went backwards: %v → %v", t0, t1)
		}
	})
}

func TestPlacementChangesTiming(t *testing.T) {
	// Two ranks on the same SMP node vs on different nodes: the
	// inter-node exchange must be slower for large messages.
	elapsed := func(placement []int) des.Duration {
		cl := simnet.NewSMPCluster(simnet.SMPClusterConfig{
			Nodes: 2, ProcsPerNode: 2,
			BusBandwidth:     1000 * MB,
			AdapterBandwidth: 100 * MB,
			IntraLatency:     1 * des.Microsecond,
			InterLatency:     10 * des.Microsecond,
		})
		net := simnet.New(simnet.Config{Fabric: cl, TxBandwidth: 2000 * MB, RxBandwidth: 2000 * MB})
		var d des.Duration
		err := Run(WorldConfig{Net: net, Procs: 2, Placement: placement}, func(c *Comm) {
			other := 1 - c.Rank()
			start := c.Time()
			c.SendrecvBytes(other, 0, 1_000_000, other, 0)
			if c.Rank() == 0 {
				d = c.Time().Sub(start)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sameNode := elapsed([]int{0, 1})
	crossNode := elapsed([]int{0, 2})
	if crossNode <= sameNode {
		t.Errorf("cross-node %v should exceed same-node %v", crossNode, sameNode)
	}
}

func TestDeterministicProtocolTrace(t *testing.T) {
	trace := func() string {
		var sb strings.Builder
		net := testNet(8)
		err := Run(WorldConfig{Net: net}, func(c *Comm) {
			n := c.Size()
			for step := 0; step < 3; step++ {
				r, l := (c.Rank()+1)%n, (c.Rank()-1+n)%n
				c.SendrecvBytes(r, step, int64(1000*(step+1)), l, step)
			}
			c.Barrier()
			if c.Rank() == 0 {
				fmt.Fprintf(&sb, "done@%v msgs=%d bytes=%d", c.Time(), net.Messages(), net.BytesMoved())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := trace(), trace(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestParallelRingFasterThanSerializedOnSharedSpine(t *testing.T) {
	// Sanity for the b_eff premise: with per-proc NICs the parallel ring
	// moves n messages in roughly the time of one.
	const n = 8
	net := testNet(n)
	var ringTime des.Duration
	err := Run(WorldConfig{Net: net}, func(c *Comm) {
		start := c.Time()
		r, l := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		c.SendrecvBytes(r, 0, 1_000_000, l, 0)
		c.Barrier()
		if c.Rank() == 0 {
			ringTime = c.Time().Sub(start)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// One rendezvous 1MB transfer at 100MB/s is ~10ms; eight of them in
	// parallel should take well under 8x that.
	if ringTime > des.Duration(30*des.Millisecond) {
		t.Errorf("parallel ring took %v, expected ~10-20ms", ringTime)
	}
}

func TestScanInt64(t *testing.T) {
	const n = 7
	run(t, n, func(c *Comm) {
		got := []int64{int64(c.Rank() + 1)}
		c.ScanInt64(OpSum, got)
		want := int64((c.Rank() + 1) * (c.Rank() + 2) / 2)
		if got[0] != want {
			t.Errorf("rank %d: scan = %d, want %d", c.Rank(), got[0], want)
		}
	})
}

func TestScanMax(t *testing.T) {
	const n = 6
	vals := []int64{3, 1, 4, 1, 5, 2}
	run(t, n, func(c *Comm) {
		got := []int64{vals[c.Rank()]}
		c.ScanInt64(OpMax, got)
		want := vals[0]
		for i := 1; i <= c.Rank(); i++ {
			if vals[i] > want {
				want = vals[i]
			}
		}
		if got[0] != want {
			t.Errorf("rank %d: scan-max = %d, want %d", c.Rank(), got[0], want)
		}
	})
}

func TestExscanSum(t *testing.T) {
	const n = 5
	run(t, n, func(c *Comm) {
		got := []int64{10}
		c.ExscanInt64(OpSum, got)
		if want := int64(10 * c.Rank()); got[0] != want {
			t.Errorf("rank %d: exscan = %d, want %d", c.Rank(), got[0], want)
		}
	})
}

func TestExscanMaxShifts(t *testing.T) {
	const n = 4
	vals := []int64{7, 3, 9, 1}
	run(t, n, func(c *Comm) {
		got := []int64{vals[c.Rank()]}
		c.ExscanInt64(OpMax, got)
		if c.Rank() == 0 {
			return // undefined at rank 0, as in MPI
		}
		want := vals[0]
		for i := 1; i < c.Rank(); i++ {
			if vals[i] > want {
				want = vals[i]
			}
		}
		if got[0] != want {
			t.Errorf("rank %d: exscan-max = %d, want %d", c.Rank(), got[0], want)
		}
	})
}

func TestScanVectorQuick(t *testing.T) {
	// Property: element-wise, rank r's scan equals the running sum.
	const n = 8
	f := func(seed int64) bool {
		base := seed % 1000
		ok := true
		err := Run(WorldConfig{Net: testNet(n)}, func(c *Comm) {
			mine := []int64{base + int64(c.Rank()), -int64(c.Rank() * c.Rank())}
			got := append([]int64(nil), mine...)
			c.ScanInt64(OpSum, got)
			var w0, w1 int64
			for i := 0; i <= c.Rank(); i++ {
				w0 += base + int64(i)
				w1 += -int64(i * i)
			}
			if got[0] != w0 || got[1] != w1 {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicInsideCollectivePropagates(t *testing.T) {
	// A process dying mid-collective must fail the whole run with its
	// panic message — not hang the peers in the barrier.
	err := Run(WorldConfig{Net: testNet(4)}, func(c *Comm) {
		if c.Rank() == 2 {
			panic("rank 2 exploded")
		}
		c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 exploded") {
		t.Fatalf("want propagated panic, got %v", err)
	}
}

func TestEarlyExitFromCollectiveDeadlocks(t *testing.T) {
	// One rank skipping a collective every other rank enters is the
	// classic MPI hang; the engine must diagnose it as a deadlock
	// rather than spinning forever.
	err := Run(WorldConfig{Net: testNet(3)}, func(c *Comm) {
		if c.Rank() == 0 {
			return // skips the barrier
		}
		c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock diagnosis, got %v", err)
	}
}

func TestMismatchedBcastRootDeadlocks(t *testing.T) {
	err := Run(WorldConfig{Net: testNet(4)}, func(c *Comm) {
		root := 0
		if c.Rank() == 3 {
			root = 1 // wrong root on one rank
		}
		c.Bcast(root, make([]byte, 1024))
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock, got %v", err)
	}
}

// TestBlockingCallsResumeOnce checks that a blocking call resumes its
// rank's coroutine at most once, however many rounds, parks and sleeps
// it takes: the engine runs the rest of the wait. On 64 ranks, 10
// Barriers and 10 Allreduces may resume each rank once per call, plus
// the rank's first activation; the pops stay what the rounds need.
func TestBlockingCallsResumeOnce(t *testing.T) {
	const n, calls = 64, 10
	m := &des.Metrics{Dispatches: new(obs.Counter), Resumes: new(obs.Counter)}
	cfg := WorldConfig{Net: testNet(n)}
	cfg.Observe(Observer{OnEngine: func(e *des.Engine) { e.SetMetrics(m) }})
	err := Run(cfg, func(c *Comm) {
		for i := 0; i < calls; i++ {
			c.Barrier()
			if got := AllreduceValue(c, OpSum, int64(c.Rank())); got != n*(n-1)/2 {
				t.Errorf("rank %d: sum %d", c.Rank(), got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, limit := m.Resumes.Value(), int64(n*(2*calls+1)); r > limit {
		t.Errorf("%d resumes, want at most %d (one per rank and call, plus activation)", r, limit)
	}
	if d, r := m.Dispatches.Value(), m.Resumes.Value(); d < 4*r {
		t.Errorf("%d dispatches for %d resumes: the rounds' parks and sleeps should not resume the rank", d, r)
	}
}

// TestAllreduceAllocatesNothingPerCall: the scalar collectives run on
// per-rank scratch, so 100 more one-element Allreduce calls per rank on
// 16 ranks add fewer than 16 allocations to a whole run. The shorter run
// makes 200 calls already, enough for every link's busy-slot window
// (simnet's compactThreshold) to have reached its bound; at 100 the
// windows still grow.
func TestAllreduceAllocatesNothingPerCall(t *testing.T) {
	const n = 16
	allocs := func(calls int) float64 {
		return testing.AllocsPerRun(3, func() {
			err := Run(WorldConfig{Net: testNet(n)}, func(c *Comm) {
				for i := 0; i < calls; i++ {
					AllreduceValue(c, OpMax, float64(i))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	base, more := allocs(200), allocs(300)
	if extra := more - base; extra >= n {
		t.Errorf("100 more Allreduce calls per rank on %d ranks added %.0f allocations (%.0f -> %.0f), want < %d",
			n, extra, base, more, n)
	}
}
