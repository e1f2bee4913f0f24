package main

import (
	"math"
	"sort"
)

// dist is a sorted sample of one measured quantity. Every summary
// drawn from it is reported together with its sample count, because a
// percentile means little without knowing how many samples lie beyond
// it.
type dist struct {
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// n is the sample count.
func (d dist) n() int { return len(d.sorted) }

// quantile is the q-th quantile (0 <= q <= 1) by linear interpolation
// between closest ranks; NaN on an empty sample.
func (d dist) quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return d.sorted[n-1]
	}
	frac := pos - float64(lo)
	return d.sorted[lo] + frac*(d.sorted[lo+1]-d.sorted[lo])
}

func (d dist) median() float64 { return d.quantile(0.5) }

// percentile is quantile on the 0-100 scale.
func (d dist) percentile(p float64) float64 { return d.quantile(p / 100) }

// quartiles returns the first and third quartile.
func (d dist) quartiles() (q1, q3 float64) { return d.quantile(0.25), d.quantile(0.75) }

// beyond is how many samples lie strictly above the p-th percentile:
// the guide to whether that percentile is backed by enough data.
func (d dist) beyond(p float64) int {
	v := d.percentile(p)
	i := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i] > v })
	return len(d.sorted) - i
}

func (d dist) max() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[len(d.sorted)-1]
}
