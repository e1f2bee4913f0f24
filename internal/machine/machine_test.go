package machine

import (
	"testing"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
)

func TestLookupAndKeys(t *testing.T) {
	for _, k := range Keys() {
		p, err := Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.Key != k {
			t.Errorf("profile %q has key %q", k, p.Key)
		}
	}
	if _, err := Lookup("cray-1"); err == nil {
		t.Error("unknown key should error")
	}
}

func TestAllOrdering(t *testing.T) {
	ps := Profiles()
	if len(ps) < 9 {
		t.Fatalf("expected at least 9 profiles, got %d", len(ps))
	}
	seenShared := false
	for _, p := range ps {
		if p.Class == SharedMemory {
			seenShared = true
		} else if seenShared {
			t.Fatal("distributed profile after shared ones")
		}
	}
}

// TestProfilesEnumeration pins the fleet-sweep contract: Profiles
// covers the whole registry, in the stable class-then-key order, and
// every profile classifies into a known fabric family.
func TestProfilesEnumeration(t *testing.T) {
	ps := Profiles()
	if len(ps) != len(Keys()) {
		t.Fatalf("Profiles() has %d entries, registry has %d keys", len(ps), len(Keys()))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Key] {
			t.Errorf("duplicate profile %q in Profiles()", p.Key)
		}
		seen[p.Key] = true
	}
	known := map[string]bool{
		"3-D torus": true, "fat tree": true, "crossbar": true,
		"SMP cluster": true, "shared-memory bus": true, "dragonfly": true,
	}
	for _, p := range ps {
		if fam := p.FabricFamily(); !known[fam] {
			t.Errorf("profile %q has unclassified fabric family %q", p.Key, fam)
		}
	}
}

func TestFabricFamilies(t *testing.T) {
	for key, want := range map[string]string{
		"t3e":     "3-D torus",
		"myrinet": "fat tree",
		"sr2201":  "crossbar",
		"sp":      "SMP cluster",
		"sx5":     "shared-memory bus",
	} {
		p, err := Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.FabricFamily(); got != want {
			t.Errorf("%s fabric family = %q, want %q", key, got, want)
		}
	}
}

func TestLmaxMatchesTable1(t *testing.T) {
	cases := []struct {
		key  string
		want int64
	}{
		{"t3e", 1 << 20},
		{"sr8000-rr", 8 << 20},
		{"sr8000-seq", 8 << 20},
		{"sr2201", 2 << 20},
		{"sx5", 2 << 20},
		{"sx4", 2 << 20},
		{"hpv", 8 << 20},
		{"sv1", 4 << 20},
	}
	for _, c := range cases {
		p, err := Lookup(c.key)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Lmax(); got != c.want {
			t.Errorf("%s L_max = %d MB, want %d MB (Table 1)", c.key, got>>20, c.want>>20)
		}
	}
}

func TestLmaxCappedAt128MB(t *testing.T) {
	p := Profile{MemoryPerProc: 64 << 30}
	if p.Lmax() != 128<<20 {
		t.Errorf("L_max should cap at 128 MB, got %d", p.Lmax())
	}
}

func TestMPartRule(t *testing.T) {
	// M_PART = max(2 MB, node memory / 128).
	small := Profile{MemoryPerProc: 64 << 20, SMPNodeSize: 1}
	if small.MPart() != 2<<20 {
		t.Errorf("small machine M_PART = %d, want 2 MB floor", small.MPart())
	}
	sp, _ := Lookup("sp")
	if sp.MPart() != (256<<20)*4/128 {
		t.Errorf("sp M_PART = %d", sp.MPart())
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	p, _ := Lookup("sr8000-rr")
	place := p.Placement(16) // 2 nodes of 8
	if place == nil {
		t.Fatal("round-robin placement should not be identity")
	}
	// Rank 0 → node 0 slot 0, rank 1 → node 1 slot 0, rank 2 → node 0
	// slot 1 ...
	if place[0] != 0 || place[1] != 8 || place[2] != 1 || place[3] != 9 {
		t.Errorf("placement = %v", place[:4])
	}
	// Bijective onto [0,16).
	seen := map[int]bool{}
	for _, ph := range place {
		if ph < 0 || ph >= 16 || seen[ph] {
			t.Fatalf("placement not a permutation: %v", place)
		}
		seen[ph] = true
	}
}

func TestPlacementSequentialIsIdentity(t *testing.T) {
	p, _ := Lookup("sr8000-seq")
	if p.Placement(16) != nil {
		t.Error("sequential placement should be identity (nil)")
	}
}

func TestBuildWorldBoundsChecked(t *testing.T) {
	p, _ := Lookup("sr2201")
	if _, err := p.BuildWorld(17); err == nil {
		t.Error("17 > MaxProcs should fail")
	}
	if _, err := p.BuildWorld(0); err == nil {
		t.Error("0 procs should fail")
	}
	if _, err := p.BuildWorld(16); err != nil {
		t.Error(err)
	}
}

func TestEveryProfileRunsASmallJob(t *testing.T) {
	for _, p := range Profiles() {
		procs := 4
		if p.MaxProcs < procs {
			procs = p.MaxProcs
		}
		cfg, err := p.BuildWorld(procs)
		if err != nil {
			t.Fatalf("%s: %v", p.Key, err)
		}
		err = mpi.Run(cfg, func(c *mpi.Comm) {
			n := c.Size()
			r, l := (c.Rank()+1)%n, (c.Rank()-1+n)%n
			c.SendrecvBytes(r, 0, 64*1024, l, 0)
			c.Barrier()
		})
		if err != nil {
			t.Errorf("%s: small job failed: %v", p.Key, err)
		}
	}
}

func TestFSBuildsWhereDeclared(t *testing.T) {
	for _, p := range Profiles() {
		if p.FS == nil {
			continue
		}
		fs, err := p.BuildFS()
		if err != nil {
			t.Errorf("%s: %v", p.Key, err)
			continue
		}
		if fs.Config().Name == "" {
			t.Errorf("%s: fs should carry a name", p.Key)
		}
	}
}

func TestT3EPingPongNearVendor(t *testing.T) {
	// Asymptotic ping-pong on two neighbouring T3E processors should
	// land near the 330 MB/s the paper quotes.
	p, _ := Lookup("t3e")
	cfg, err := p.BuildWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	var bw float64
	err = mpi.Run(cfg, func(c *mpi.Comm) {
		const L = 1 << 20
		const iters = 10
		c.Barrier()
		start := c.Wtime()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				c.SendBytes(1, 0, L)
				c.RecvBytes(1, 0)
			} else {
				c.RecvBytes(0, 0)
				c.SendBytes(0, 0, L)
			}
		}
		if c.Rank() == 0 {
			el := c.Wtime() - start
			bw = float64(2*iters*L) / el
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mb := bw / 1e6
	if mb < 260 || mb > 400 {
		t.Errorf("T3E ping-pong = %.0f MB/s, want ~330 (Table 1)", mb)
	}
}

func TestSR8000NumberingGap(t *testing.T) {
	// Table 1: at 24 processors, the sequential numbering's ring
	// bandwidth per processor (~400 MB/s) is several times the
	// round-robin one (~110 MB/s).
	ringBW := func(key string) float64 {
		p, _ := Lookup(key)
		cfg, err := p.BuildWorld(24)
		if err != nil {
			t.Fatal(err)
		}
		var perProc float64
		err = mpi.Run(cfg, func(c *mpi.Comm) {
			const L = 8 << 20
			n := c.Size()
			r, l := (c.Rank()+1)%n, (c.Rank()-1+n)%n
			c.Barrier()
			start := c.Wtime()
			const iters = 3
			for i := 0; i < iters; i++ {
				c.SendrecvBytes(l, 0, L, r, 0)
				c.SendrecvBytes(r, 1, L, l, 1)
			}
			c.Barrier()
			if c.Rank() == 0 {
				el := c.Wtime() - start
				perProc = float64(2*iters*L) / el
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return perProc / 1e6
	}
	seq := ringBW("sr8000-seq")
	rr := ringBW("sr8000-rr")
	if seq < 2.5*rr {
		t.Errorf("sequential (%0.f) should be >2.5x round-robin (%0.f); Table 1 shows ~400 vs ~110", seq, rr)
	}
}

func TestMicrosecondHelper(t *testing.T) {
	if us(2.5) != des.Duration(2500) {
		t.Errorf("us(2.5) = %v", us(2.5))
	}
}

func TestBuildIOWorldOneProcPerNode(t *testing.T) {
	// The SP profile measures I/O with one process per 4-way node: a
	// 16-process I/O world must span 64 physical processors with ranks
	// on distinct nodes.
	p, _ := Lookup("sp")
	w, err := p.BuildIOWorld(16)
	if err != nil {
		t.Fatal(err)
	}
	if w.Procs != 16 {
		t.Fatalf("procs = %d", w.Procs)
	}
	if w.Placement == nil {
		t.Fatal("expected explicit placement")
	}
	nodes := map[int]bool{}
	for r, phys := range w.Placement {
		node := phys / p.SMPNodeSize
		if nodes[node] {
			t.Errorf("rank %d shares node %d", r, node)
		}
		nodes[node] = true
	}
	if w.Net.NumProcs() != 64 {
		t.Errorf("fabric has %d processors, want 64", w.Net.NumProcs())
	}
}

func TestBuildIOWorldFallsBackForMPP(t *testing.T) {
	p, _ := Lookup("t3e") // IOProcsPerNode unset, node size 1
	w, err := p.BuildIOWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	if w.Placement != nil {
		t.Error("MPP I/O world should use identity placement")
	}
}

func TestBuildIOWorldBounds(t *testing.T) {
	p, _ := Lookup("sp")
	if _, err := p.BuildIOWorld(400); err == nil {
		t.Error("400 I/O procs x 4 > MaxProcs should fail")
	}
}

func TestBuildIOWorldRunsAJob(t *testing.T) {
	p, _ := Lookup("sp")
	w, err := p.BuildIOWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(w, func(c *mpi.Comm) {
		c.Barrier()
		n := c.Size()
		c.SendrecvBytes((c.Rank()+1)%n, 0, 1024, (c.Rank()-1+n)%n, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}
