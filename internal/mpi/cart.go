package mpi

import "sort"

// ProcNull is the null process: sends to it and receives from it
// complete immediately without communicating, like MPI_PROC_NULL. It is
// what Cart.Shift returns at a non-periodic boundary.
const ProcNull = -2

// Cart is a Cartesian communicator (MPI_Cart_create with reorder =
// false): ranks are laid out row-major over dims, and Shift yields the
// neighbours for stencil-style exchanges. b_eff's two- and
// three-dimensional analysis patterns run on these.
type Cart struct {
	*Comm
	dims    []int
	periods []bool
}

// NewCart builds a Cartesian topology over the first prod(dims) ranks
// of c. Ranks beyond the grid get nil, like MPI_COMM_NULL. Collective
// over c.
func NewCart(c *Comm, dims []int, periods []bool) *Cart {
	if len(dims) != len(periods) {
		c.Proc().Fail("mpi: NewCart dims/periods length mismatch")
	}
	vol := 1
	for _, d := range dims {
		if d < 1 {
			c.Proc().Fail("mpi: NewCart dimension %d < 1", d)
		}
		vol *= d
	}
	if vol > c.Size() {
		c.Proc().Fail("mpi: NewCart grid of %d exceeds communicator size %d", vol, c.Size())
	}
	color := 0
	if c.Rank() >= vol {
		color = -1
	}
	sub := c.Split(color, c.Rank())
	if sub == nil {
		return nil
	}
	return &Cart{
		Comm:    sub,
		dims:    append([]int(nil), dims...),
		periods: append([]bool(nil), periods...),
	}
}

// Coords converts a rank to grid coordinates (row-major, last dimension
// fastest, as in MPI).
func (t *Cart) Coords(rank int) []int {
	nd := len(t.dims)
	coords := make([]int, nd)
	for i := nd - 1; i >= 0; i-- {
		coords[i] = rank % t.dims[i]
		rank /= t.dims[i]
	}
	return coords
}

// RankOf converts grid coordinates to a rank. Out-of-range coordinates
// in periodic dimensions wrap; in non-periodic dimensions RankOf
// returns ProcNull.
func (t *Cart) RankOf(coords []int) int {
	rank := 0
	for i, d := range t.dims {
		c := coords[i]
		if c < 0 || c >= d {
			if !t.periods[i] {
				return ProcNull
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// Shift returns the ranks to receive from and send to for a
// displacement along one dimension, like MPI_Cart_shift.
func (t *Cart) Shift(dim, disp int) (src, dst int) {
	coords := t.Coords(t.Rank())
	c := coords[dim]
	coords[dim] = c + disp
	dst = t.RankOf(coords)
	coords[dim] = c - disp
	src = t.RankOf(coords)
	return src, dst
}

// DimsCreate factors nnodes into ndims dimensions as squarely as
// possible, like MPI_Dims_create with all entries zero: dimensions are
// non-increasing and their product is exactly nnodes.
func DimsCreate(nnodes, ndims int) []int {
	if ndims < 1 || nnodes < 1 {
		return nil
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Distribute prime factors largest-first onto the smallest dim.
	factors := primeFactors(nnodes)
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		smallest := 0
		for i := 1; i < ndims; i++ {
			if dims[i] < dims[smallest] {
				smallest = i
			}
		}
		dims[smallest] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims
}

func primeFactors(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}
