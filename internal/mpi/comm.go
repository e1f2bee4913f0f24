package mpi

import (
	"sort"

	"github.com/hpcbench/beff/internal/des"
)

// Comm is a communicator: an ordered group of ranks with a private
// message-matching context, like MPI_Comm. The world communicator is
// handed to each rank's body function by Run; subsets come from Split.
type Comm struct {
	world *World
	ctx   int
	rank  int   // my rank within group
	group []int // communicator rank → world rank
}

// Rank reports the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// Proc returns the caller's event-engine process handle, for charging
// local compute time (Sleep) or diagnostics.
func (c *Comm) Proc() *des.Proc { return c.world.ranks[c.group[c.rank]].proc }

// Wtime reports virtual time in seconds, like MPI_Wtime.
func (c *Comm) Wtime() float64 { return c.Proc().Now().Seconds() }

// Time reports virtual time as a des.Time.
func (c *Comm) Time() des.Time { return c.Proc().Now() }

// groupRankOf translates a world rank to a rank in this communicator,
// or -1 if the world rank is not a member. Members are unique, so a
// group that keeps worldRank at its own index (always so on the world
// communicator) answers without a scan.
func (c *Comm) groupRankOf(worldRank int) int {
	if worldRank < len(c.group) && c.group[worldRank] == worldRank {
		return worldRank
	}
	for i, wr := range c.group {
		if wr == worldRank {
			return i
		}
	}
	return -1
}

// PhysProc reports the physical processor a communicator rank is placed
// on. Useful for locality-aware analysis patterns.
func (c *Comm) PhysProc(rank int) int { return c.world.phys(c.group[rank]) }

// Split partitions the communicator by color, ordering ranks within
// each new communicator by (key, old rank), exactly like MPI_Comm_split.
// A color < 0 opts the caller out (returns nil). Collective.
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) pairs: gather to rank 0, then broadcast.
	type ck struct{ color, key, oldRank int }
	mine := []int64{int64(color), int64(key)}
	all := c.GatherInt64(0, mine)
	var flat []int64
	if c.rank == 0 {
		flat = all
	} else {
		flat = make([]int64, 2*c.Size())
	}
	c.BcastInt64(0, flat)

	pairs := make([]ck, c.Size())
	for i := range pairs {
		pairs[i] = ck{color: int(flat[2*i]), key: int(flat[2*i+1]), oldRank: i}
	}
	// Count distinct non-negative colors in ascending order for
	// deterministic context allocation across ranks.
	colorSet := map[int]bool{}
	for _, p := range pairs {
		if p.color >= 0 {
			colorSet[p.color] = true
		}
	}
	colors := make([]int, 0, len(colorSet))
	for col := range colorSet {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	base := c.allocCtx(len(colors))
	if color < 0 {
		return nil
	}
	// Build my group.
	var members []ck
	for _, p := range pairs {
		if p.color == color {
			members = append(members, p)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	group := make([]int, len(members))
	myNew := -1
	for i, m := range members {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.rank {
			myNew = i
		}
	}
	ctxIdx := sort.SearchInts(colors, color)
	return &Comm{world: c.world, ctx: base + ctxIdx, rank: myNew, group: group}
}

// allocCtx reserves n fresh context ids. Collective: all ranks of c
// call it and receive the same base. Rank 0 allocates and broadcasts.
func (c *Comm) allocCtx(n int) int {
	var base int64
	if c.rank == 0 {
		base = int64(c.world.nextCtx)
		c.world.nextCtx += n
	}
	buf := []int64{base}
	c.BcastInt64(0, buf)
	return int(buf[0])
}
