package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hpcbench/beff/internal/des"
)

const MB = 1e6

func simpleNet(n int) *Net {
	return New(Config{
		Fabric:       NewCrossbar(n, 0, 1*des.Microsecond),
		TxBandwidth:  100 * MB,
		RxBandwidth:  100 * MB,
		SendOverhead: 2 * des.Microsecond,
		RecvOverhead: 2 * des.Microsecond,
	})
}

func TestTransferTiming(t *testing.T) {
	n := simpleNet(2)
	// 1 MB at 100 MB/s = 10ms injection. send overhead 2us, latency 1us,
	// recv overhead 2us.
	senderFree, arrival := n.Transfer(0, 1, 1_000_000, 0)
	wantFree := des.Time(2*des.Microsecond) + des.Time(10*des.Millisecond)
	if senderFree != wantFree {
		t.Errorf("senderFree = %v, want %v", senderFree, wantFree)
	}
	wantArr := wantFree.Add(1 * des.Microsecond).Add(2 * des.Microsecond)
	if arrival != wantArr {
		t.Errorf("arrival = %v, want %v", arrival, wantArr)
	}
}

func TestZeroByteTransferPaysOverheads(t *testing.T) {
	n := simpleNet(2)
	senderFree, arrival := n.Transfer(0, 1, 0, 0)
	if senderFree != des.Time(2*des.Microsecond) {
		t.Errorf("senderFree = %v, want 2us", senderFree)
	}
	if arrival != des.Time(5*des.Microsecond) {
		t.Errorf("arrival = %v, want 5us (2+1+2)", arrival)
	}
}

func TestSequentialSendsSerializeOnTxNIC(t *testing.T) {
	n := simpleNet(3)
	// Two back-to-back sends from proc 0 to different destinations must
	// serialise on proc 0's injection NIC.
	free1, _ := n.Transfer(0, 1, 1_000_000, 0)
	_, arr2 := n.Transfer(0, 2, 1_000_000, 0)
	if arr2 <= free1 {
		t.Errorf("second send should start after first injection: arr2=%v free1=%v", arr2, free1)
	}
	// Second injection starts when NIC frees (10ms+2us), runs 10ms.
	wantArr2 := free1.Add(10 * des.Millisecond).Add(1 * des.Microsecond).Add(2 * des.Microsecond)
	if arr2 != wantArr2 {
		t.Errorf("arr2 = %v, want %v", arr2, wantArr2)
	}
}

func TestParallelDisjointTransfersDontContend(t *testing.T) {
	n := simpleNet(4)
	_, a1 := n.Transfer(0, 1, 1_000_000, 0)
	_, a2 := n.Transfer(2, 3, 1_000_000, 0)
	if a1 != a2 {
		t.Errorf("disjoint transfers should complete simultaneously: %v vs %v", a1, a2)
	}
}

func TestRxNICSerializesFanIn(t *testing.T) {
	n := simpleNet(3)
	_, a1 := n.Transfer(0, 2, 1_000_000, 0)
	_, a2 := n.Transfer(1, 2, 1_000_000, 0)
	if a2 <= a1 {
		t.Errorf("fan-in to one receiver must serialise: a1=%v a2=%v", a1, a2)
	}
}

func TestSelfSendIsMemcpy(t *testing.T) {
	n := New(Config{
		Fabric:           NewCrossbar(2, 0, 1*des.Microsecond),
		TxBandwidth:      100 * MB,
		RxBandwidth:      100 * MB,
		MemCopyBandwidth: 1000 * MB,
	})
	_, arr := n.Transfer(0, 0, 1_000_000, 0)
	if arr != des.Time(1*des.Millisecond) {
		t.Errorf("self-send arrival = %v, want 1ms (memcpy at 1 GB/s)", arr)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative size")
		}
	}()
	simpleNet(2).Transfer(0, 1, -1, 0)
}

func TestCrossbarSpineCapsAggregate(t *testing.T) {
	// 4 procs, fast NICs, 100 MB/s shared spine: two parallel 1 MB
	// transfers must take 20 ms to both complete (serialised on spine).
	n := New(Config{
		Fabric:      NewCrossbar(4, 100*MB, 0),
		TxBandwidth: 0, RxBandwidth: 0,
	})
	_, a1 := n.Transfer(0, 1, 1_000_000, 0)
	_, a2 := n.Transfer(2, 3, 1_000_000, 0)
	if a1 != des.Time(10*des.Millisecond) || a2 != des.Time(20*des.Millisecond) {
		t.Errorf("spine should serialise: a1=%v a2=%v", a1, a2)
	}
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := NewTorus3D(4, 3, 2, 100*MB, 0, 0)
	for node := 0; node < tor.NumProcs(); node++ {
		if got := tor.node(tor.coords(node)); got != node {
			t.Fatalf("coords round trip failed for %d: got %d", node, got)
		}
	}
}

func TestTorusHopCounts(t *testing.T) {
	tor := NewTorus3D(8, 8, 8, 100*MB, 0, 0)
	cases := []struct {
		src, dst, want int
	}{
		{0, 0, 0},
		{0, 1, 1},             // +x neighbour
		{0, 7, 1},             // wraparound -x
		{0, 8, 1},             // +y neighbour
		{0, 64, 1},            // +z neighbour
		{0, 4, 4},             // half way around x ring
		{0, 4 + 32 + 256, 12}, // opposite corner: 4+4+4
	}
	for _, c := range cases {
		if got := tor.HopCount(c.src, c.dst); got != c.want {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestTorusPathLengthMatchesHopCount(t *testing.T) {
	tor := NewTorus3D(4, 4, 4, 100*MB, 0, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s, d := rng.Intn(64), rng.Intn(64)
		path, _ := tor.Path(nil, s, d)
		if len(path) != tor.HopCount(s, d) {
			t.Fatalf("path(%d,%d) has %d segments, hop count %d", s, d, len(path), tor.HopCount(s, d))
		}
	}
}

func TestTorusHopCountSymmetric(t *testing.T) {
	tor := NewTorus3D(5, 3, 4, 100*MB, 0, 0)
	f := func(a, b uint8) bool {
		s := int(a) % tor.NumProcs()
		d := int(b) % tor.NumProcs()
		return tor.HopCount(s, d) == tor.HopCount(d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusLatencyScalesWithHops(t *testing.T) {
	tor := NewTorus3D(8, 1, 1, 100*MB, 1*des.Microsecond, 100*des.Nanosecond)
	_, lat1 := tor.Path(nil, 0, 1)
	_, lat4 := tor.Path(nil, 0, 4)
	if lat1 != des.Duration(1100) {
		t.Errorf("1-hop latency = %v, want 1.1us", lat1)
	}
	if lat4 != des.Duration(1400) {
		t.Errorf("4-hop latency = %v, want 1.4us", lat4)
	}
}

func TestTorusNeighborTrafficDisjoint(t *testing.T) {
	// In a ring along x, all +x messages use distinct links: no
	// contention, so all arrive at the same time.
	tor := NewTorus3D(8, 1, 1, 100*MB, 0, 0)
	n := New(Config{Fabric: tor, TxBandwidth: 0, RxBandwidth: 0})
	var arrivals []des.Time
	for p := 0; p < 8; p++ {
		_, a := n.Transfer(p, (p+1)%8, 1_000_000, 0)
		arrivals = append(arrivals, a)
	}
	for _, a := range arrivals {
		if a != arrivals[0] {
			t.Fatalf("neighbour ring traffic should not contend: %v", arrivals)
		}
	}
}

func TestTorusCrossTrafficContends(t *testing.T) {
	// Two messages that both cross link 0→1 serialise.
	tor := NewTorus3D(8, 1, 1, 100*MB, 0, 0)
	n := New(Config{Fabric: tor, TxBandwidth: 0, RxBandwidth: 0})
	_, a1 := n.Transfer(0, 2, 1_000_000, 0) // links 0→1, 1→2
	_, a2 := n.Transfer(7, 1, 1_000_000, 0) // links 7→0, 0→1 (shared!)
	if a2 <= a1 {
		t.Errorf("messages sharing a link must serialise: a1=%v a2=%v", a1, a2)
	}
}

func TestSMPClusterIntraVsInter(t *testing.T) {
	cl := NewSMPCluster(SMPClusterConfig{
		Nodes: 2, ProcsPerNode: 4,
		BusBandwidth:     1000 * MB,
		IntraCopies:      2,
		AdapterBandwidth: 100 * MB,
		IntraLatency:     1 * des.Microsecond,
		InterLatency:     10 * des.Microsecond,
	})
	n := New(Config{Fabric: cl, TxBandwidth: 0, RxBandwidth: 0})
	// Intra-node 1MB: 2 copies over 1 GB/s bus = 2ms + 1us.
	_, intra := n.Transfer(0, 1, 1_000_000, 0)
	if intra != des.Time(2*des.Millisecond+1*des.Microsecond) {
		t.Errorf("intra arrival = %v, want 2.001ms", intra)
	}
	// Inter-node 1MB: adapter at 100 MB/s = 10ms + 10us.
	_, inter := n.Transfer(0, 4, 1_000_000, 0)
	if inter != des.Time(10*des.Millisecond+10*des.Microsecond) {
		t.Errorf("inter arrival = %v, want 10.01ms", inter)
	}
}

func TestSMPClusterAdapterSharedByNodeProcs(t *testing.T) {
	cl := NewSMPCluster(SMPClusterConfig{
		Nodes: 2, ProcsPerNode: 2,
		AdapterBandwidth: 100 * MB,
	})
	n := New(Config{Fabric: cl})
	// Both procs of node 0 send inter-node at once: egress serialises.
	_, a1 := n.Transfer(0, 2, 1_000_000, 0)
	_, a2 := n.Transfer(1, 3, 1_000_000, 0)
	if a2 != a1.Add(10*des.Millisecond) {
		t.Errorf("egress adapter should serialise node's procs: a1=%v a2=%v", a1, a2)
	}
}

func TestSMPClusterNodeOf(t *testing.T) {
	cl := NewSMPCluster(SMPClusterConfig{Nodes: 3, ProcsPerNode: 4})
	for p := 0; p < 12; p++ {
		if got, want := cl.NodeOf(p), p/4; got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	r := NewResource("r", 100*MB)
	segs := []Segment{Seg(r)}
	reserve(segs, 1_000_000, 0) // 10ms busy
	if r.BusyTime() != 10*des.Millisecond {
		t.Errorf("busy = %v, want 10ms", r.BusyTime())
	}
	if got := r.Utilization(des.Time(20 * des.Millisecond)); got < 0.49 || got > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", got)
	}
	if r.Reservations() != 1 {
		t.Errorf("reservations = %d, want 1", r.Reservations())
	}
}

func TestSegmentFactorScalesOccupancy(t *testing.T) {
	r := NewResource("bus", 100*MB)
	_, end := reserve([]Segment{{R: r, Factor: 2}}, 1_000_000, 0)
	if end != des.Time(20*des.Millisecond) {
		t.Errorf("factor-2 segment end = %v, want 20ms", end)
	}
}

func TestInfiniteBandwidthResource(t *testing.T) {
	r := NewResource("inf", 0)
	start, end := reserve([]Segment{Seg(r)}, 1<<30, des.Time(5))
	if start != 5 || end != 5 {
		t.Errorf("infinite resource should have zero occupancy: %v..%v", start, end)
	}
}

func TestReserveNextFreeMonotone(t *testing.T) {
	r := NewResource("r", 100*MB)
	f := func(sizes []uint16) bool {
		prev := r.NextFree()
		for _, s := range sizes {
			reserve([]Segment{Seg(r)}, int64(s), 0)
			if r.NextFree() < prev {
				return false
			}
			prev = r.NextFree()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyHelper(t *testing.T) {
	n := simpleNet(2)
	if got := n.Latency(0, 1); got != 5*des.Microsecond {
		t.Errorf("Latency = %v, want 5us", got)
	}
	if got := n.Latency(1, 1); got != 4*des.Microsecond {
		t.Errorf("self Latency = %v, want 4us", got)
	}
}

func TestStepShortestDirection(t *testing.T) {
	if step(0, 3, 8) != 1 {
		t.Error("0→3 in ring of 8 should go +1")
	}
	if step(0, 6, 8) != -1 {
		t.Error("0→6 in ring of 8 should go -1 (wrap)")
	}
	if step(0, 4, 8) != 1 {
		t.Error("tie should break positive")
	}
}

func TestPortHalfDuplexContention(t *testing.T) {
	// With a 200 MB/s port, a single 1 MB stream flows at 200 MB/s but
	// two simultaneous opposite-direction transfers between the same
	// pair serialise on the shared ports: both done only after 10 ms.
	n := New(Config{
		Fabric:        NewCrossbar(2, 0, 0),
		PortBandwidth: 200 * MB,
	})
	_, a1 := n.Transfer(0, 1, 1_000_000, 0)
	_, a2 := n.Transfer(1, 0, 1_000_000, 0)
	if a1 != des.Time(5*des.Millisecond) {
		t.Errorf("first transfer arrival = %v, want 5ms", a1)
	}
	if a2 != des.Time(10*des.Millisecond) {
		t.Errorf("opposite transfer should queue on shared ports: %v, want 10ms", a2)
	}
}

func TestGapFillingBackfill(t *testing.T) {
	// A transfer booked later in simulation order but targeting an
	// earlier idle window must not queue behind unrelated future
	// traffic: pair (0,1) books [0,10ms]; pair (2,3) then books and
	// must also start at 0, not at 10ms.
	r := NewResource("r", 100*MB)
	_, end1 := reserve([]Segment{Seg(r)}, 1_000_000, 0)
	if end1 != des.Time(10*des.Millisecond) {
		t.Fatalf("first end = %v", end1)
	}
	// Second booking far in the future leaves a gap...
	start2, _ := reserve([]Segment{Seg(r)}, 1_000_000, des.Time(50*des.Millisecond))
	if start2 != des.Time(50*des.Millisecond) {
		t.Fatalf("second start = %v", start2)
	}
	// ...which a third booking with an early desired time fills.
	start3, end3 := reserve([]Segment{Seg(r)}, 1_000_000, des.Time(15*des.Millisecond))
	if start3 != des.Time(15*des.Millisecond) || end3 != des.Time(25*des.Millisecond) {
		t.Errorf("gap not filled: start=%v end=%v", start3, end3)
	}
}

func TestGapTooSmallSkipped(t *testing.T) {
	r := NewResource("r", 100*MB)
	reserve([]Segment{Seg(r)}, 1_000_000, 0)                            // [0,10ms]
	reserve([]Segment{Seg(r)}, 1_000_000, des.Time(12*des.Millisecond)) // [12,22ms]
	// 5ms of work wants to start at 8ms; the 2ms gap at [10,12] is too
	// small, so it lands after 22ms.
	start, _ := reserve([]Segment{Seg(r)}, 500_000, des.Time(8*des.Millisecond))
	if start != des.Time(22*des.Millisecond) {
		t.Errorf("start = %v, want 22ms (gap too small)", start)
	}
}

func TestSlotMergingKeepsListSmall(t *testing.T) {
	r := NewResource("r", 100*MB)
	// Back-to-back bookings merge into one slot.
	for i := 0; i < 100; i++ {
		reserve([]Segment{Seg(r)}, 100_000, 0)
	}
	if n := len(r.busySlots); n != 1 {
		t.Errorf("adjacent bookings should merge: %d slots", n)
	}
}

func TestCompactionBoundsMemory(t *testing.T) {
	r := NewResource("r", 100*MB)
	// Alternating gaps prevent merging; the window must stay bounded.
	for i := 0; i < 10_000; i++ {
		reserve([]Segment{Seg(r)}, 1000, des.Time(int64(i)*int64(des.Millisecond)))
	}
	if n := len(r.busySlots); n > compactThreshold {
		t.Errorf("slot window unbounded: %d", n)
	}
	if r.Reservations() != 10_000 {
		t.Errorf("count = %d", r.Reservations())
	}
}

func TestReservationsNeverOverlap(t *testing.T) {
	r := NewResource("r", 100*MB)
	rng := rand.New(rand.NewSource(7))
	type iv struct{ s, e des.Time }
	var booked []iv
	for i := 0; i < 500; i++ {
		desired := des.Time(rng.Int63n(int64(des.Second)))
		size := rng.Int63n(200_000) + 1
		occ := r.occupancy(float64(size))
		start := r.reserveAt(desired, occ)
		if start < desired {
			t.Fatalf("booking %d starts %v before desired %v", i, start, desired)
		}
		booked = append(booked, iv{start, start.Add(occ)})
	}
	for i := range booked {
		for j := i + 1; j < len(booked); j++ {
			a, b := booked[i], booked[j]
			if a.s < b.e && b.s < a.e {
				t.Fatalf("overlap: %v and %v", a, b)
			}
		}
	}
}

func TestFatTreeSameLeafNoSwitchLinks(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{Procs: 16, LeafSize: 4, Uplinks: 2, LinkBW: 100 * MB,
		IntraLat: des.Microsecond, InterLat: 5 * des.Microsecond})
	path, lat := ft.Path(nil, 0, 3)
	if len(path) != 0 || lat != des.Microsecond {
		t.Errorf("same-leaf path = %d segs, lat %v", len(path), lat)
	}
	path, lat = ft.Path(nil, 0, 4)
	if len(path) != 2 || lat != 5*des.Microsecond {
		t.Errorf("cross-leaf path = %d segs, lat %v", len(path), lat)
	}
}

func TestFatTreeLeafOf(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{Procs: 12, LeafSize: 4, Uplinks: 2, LinkBW: 1})
	for p := 0; p < 12; p++ {
		if ft.LeafOf(p) != p/4 {
			t.Errorf("LeafOf(%d) = %d", p, ft.LeafOf(p))
		}
	}
}

func TestFatTreeOversubscriptionContention(t *testing.T) {
	// 4 procs per leaf, 1 uplink: all four cross-leaf senders share one
	// uplink and serialise; with 4 uplinks they may spread out.
	elapsed := func(uplinks int) des.Time {
		ft := NewFatTree(FatTreeConfig{Procs: 8, LeafSize: 4, Uplinks: uplinks, LinkBW: 100 * MB})
		n := New(Config{Fabric: ft})
		var last des.Time
		for p := 0; p < 4; p++ {
			_, arr := n.Transfer(p, 4+p, 1_000_000, 0)
			if arr > last {
				last = arr
			}
		}
		return last
	}
	one := elapsed(1)
	four := elapsed(4)
	if one < des.Time(40*des.Millisecond) {
		t.Errorf("single uplink should serialise 4 MB at 100 MB/s: %v", one)
	}
	if four >= one {
		t.Errorf("more uplinks should help: 1up=%v 4up=%v", one, four)
	}
}

func TestFatTreeStaticRoutingDeterministic(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{Procs: 32, LeafSize: 8, Uplinks: 4, LinkBW: 1})
	for i := 0; i < 10; i++ {
		if ft.routeIndex(3, 19) != ft.routeIndex(3, 19) {
			t.Fatal("route flapped")
		}
	}
	// Different pairs should not all hash to one uplink.
	used := map[int]bool{}
	for d := 8; d < 32; d++ {
		used[ft.routeIndex(0, d)] = true
	}
	if len(used) < 2 {
		t.Error("static routing degenerated to one uplink")
	}
}

func TestHotResources(t *testing.T) {
	tor := NewTorus3D(4, 1, 1, 100*MB, 0, 0)
	n := New(Config{Fabric: tor, TxBandwidth: 200 * MB, RxBandwidth: 200 * MB})
	n.Transfer(0, 1, 1_000_000, 0)
	n.Transfer(0, 1, 1_000_000, 0)
	n.Transfer(2, 3, 500_000, 0)
	stats := n.HotResources(des.Time(des.Second), 3)
	if len(stats) != 3 {
		t.Fatalf("%d stats", len(stats))
	}
	// The 0→1 link carried 2 MB at 100 MB/s: 20ms busy, the top spot.
	if stats[0].Name != "link[n0,d0,+1]" {
		t.Errorf("hottest = %s", stats[0].Name)
	}
	if stats[0].Busy != 20*des.Millisecond {
		t.Errorf("busy = %v", stats[0].Busy)
	}
	if stats[0].Utilization < 0.019 || stats[0].Utilization > 0.021 {
		t.Errorf("utilization = %v", stats[0].Utilization)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Busy > stats[i-1].Busy {
			t.Error("not sorted by busy time")
		}
	}
}

func TestHotResourcesAllFabricsListable(t *testing.T) {
	fabrics := []Fabric{
		NewTorus3D(2, 2, 2, 1, 0, 0),
		NewSMPCluster(SMPClusterConfig{Nodes: 2, ProcsPerNode: 2, AdapterBandwidth: 1}),
		NewCrossbar(4, 100, 0),
		NewFatTree(FatTreeConfig{Procs: 8, LeafSize: 4, Uplinks: 2, LinkBW: 1}),
	}
	for i, f := range fabrics {
		if _, ok := f.(ResourceLister); !ok {
			t.Errorf("fabric %d does not list resources", i)
		}
	}
}
