// Package stats provides the averaging machinery the b_eff and
// b_eff_io definitions prescribe: logarithmic averages, weighted
// averages, and the summaries the robustness and fleet reports use.
//
// Degenerate-input contract: every summary in this package returns a
// finite, JSON-marshalable value for every input. Non-finite samples
// (NaN, ±Inf) are dropped before summarising, an empty (or
// all-non-finite) sample yields zero, and a single-element sample
// yields that element for the location statistics and zero for the
// spread statistics (StdDev, CV). Fleet and robustness summaries are
// serialised as JSON, where a NaN is not representable — a reps=1 run
// or a failed repetition must degrade to zeros, never to NaN.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// LogAvg returns the logarithmic (geometric) average of the values:
// exp(mean(log(x))). It is the combination rule b_eff uses to merge
// ring and random pattern families. Non-positive values would make the
// logarithm blow up, so they are clamped to a tiny epsilon — a pattern
// that measured zero bandwidth still drags the average down hard
// without destroying it.
func LogAvg(xs ...float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	sum := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// finite filters the non-finite samples out, reusing the input slice
// when nothing needs dropping (the overwhelmingly common case).
func finite(xs []float64) []float64 {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			kept := append([]float64(nil), xs[:i]...)
			for _, y := range xs[i+1:] {
				if !math.IsNaN(y) && !math.IsInf(y, 0) {
					kept = append(kept, y)
				}
			}
			return kept
		}
	}
	return xs
}

// Mean returns the arithmetic mean of the finite samples, 0 for empty
// input.
func Mean(xs ...float64) float64 {
	xs = finite(xs)
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WeightedMean returns sum(w_i x_i)/sum(w_i); 0 when the weights sum to
// zero.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: %d values vs %d weights", len(xs), len(ws)))
	}
	var sx, sw float64
	for i := range xs {
		sx += xs[i] * ws[i]
		sw += ws[i]
	}
	if sw == 0 {
		return 0
	}
	return sx / sw
}

// Max returns the maximum of the finite samples, 0 for empty input.
func Max(xs ...float64) float64 {
	xs = finite(xs)
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of the finite samples, 0 for empty input.
func Min(xs ...float64) float64 {
	xs = finite(xs)
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Median returns the middle finite value (mean of the two middle
// values for even counts), 0 for empty input. The input is not
// modified.
func Median(xs ...float64) float64 {
	xs = finite(xs)
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// StdDev returns the population standard deviation of the finite
// samples, 0 for fewer than two values.
func StdDev(xs ...float64) float64 {
	xs = finite(xs)
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs...)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Robust summarises repeated measurements of one quantity — the
// repetition protocol b_eff prescribes (Sec. 3 of the paper: report the
// maximum over repetitions) extended with the spread statistics a
// robustness characterisation needs.
type Robust struct {
	N                      int
	Min, Median, Mean, Max float64
	StdDev                 float64
	// CV is the coefficient of variation StdDev/Mean (0 when Mean is
	// 0): the scale-free run-to-run variability of the measurement.
	CV float64
}

// Describe computes the Robust summary of the finite samples. N
// counts the samples actually summarised, so a caller can tell a
// degenerate summary (N < 2: spread statistics are zero by
// definition, not measurement) from a real one. Every field is
// finite for every input — a Robust always survives a JSON round
// trip.
func Describe(xs ...float64) Robust {
	xs = finite(xs)
	r := Robust{
		N:      len(xs),
		Min:    Min(xs...),
		Median: Median(xs...),
		Mean:   Mean(xs...),
		Max:    Max(xs...),
		StdDev: StdDev(xs...),
	}
	if r.Mean != 0 {
		r.CV = r.StdDev / r.Mean
	}
	return r
}
