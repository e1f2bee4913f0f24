package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLogAvgBasics(t *testing.T) {
	if got := LogAvg(4, 16); !approx(got, 8, 1e-9) {
		t.Errorf("LogAvg(4,16) = %v, want 8", got)
	}
	if got := LogAvg(5); !approx(got, 5, 1e-9) {
		t.Errorf("LogAvg(5) = %v", got)
	}
	if got := LogAvg(); got != 0 {
		t.Errorf("LogAvg() = %v, want 0", got)
	}
}

func TestLogAvgClampsNonPositive(t *testing.T) {
	got := LogAvg(0, 100)
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Errorf("LogAvg with zero should stay finite positive, got %v", got)
	}
	if got > 1 {
		t.Errorf("a zero measurement should crush the average, got %v", got)
	}
}

func TestLogAvgBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		la := LogAvg(xs...)
		return la >= Min(xs...)-1e-9 && la <= Max(xs...)+1e-9 && la <= Mean(xs...)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(1, 2, 3, 4); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
}

func TestWeightedMean(t *testing.T) {
	// The b_eff_io access-method weights: 25% write, 25% rewrite, 50% read.
	got := WeightedMean([]float64{100, 200, 400}, []float64{0.25, 0.25, 0.5})
	if !approx(got, 275, 1e-9) {
		t.Errorf("WeightedMean = %v, want 275", got)
	}
}

func TestWeightedMeanZeroWeights(t *testing.T) {
	if got := WeightedMean([]float64{1, 2}, []float64{0, 0}); got != 0 {
		t.Errorf("zero weights should give 0, got %v", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

func TestMinMax(t *testing.T) {
	if Max(3, 9, 1) != 9 || Min(3, 9, 1) != 1 {
		t.Error("min/max wrong")
	}
	if Max() != 0 || Min() != 0 {
		t.Error("empty min/max should be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := Median(9, 1, 3); got != 3 {
		t.Errorf("odd Median = %v, want 3", got)
	}
	if got := Median(4, 1, 3, 2); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
	if got := Median(); got != 0 {
		t.Errorf("empty Median = %v", got)
	}
	// The input must not be reordered.
	xs := []float64{3, 1, 2}
	Median(xs...)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(2, 4, 4, 4, 5, 5, 7, 9); !approx(got, 2, 1e-9) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if StdDev(5) != 0 || StdDev() != 0 {
		t.Error("fewer than two values must give 0")
	}
}

func TestDescribe(t *testing.T) {
	r := Describe(10, 20, 30)
	if r.N != 3 || r.Min != 10 || r.Median != 20 || r.Max != 30 || r.Mean != 20 {
		t.Errorf("Describe = %+v", r)
	}
	if !approx(r.CV, r.StdDev/20, 1e-12) || r.CV <= 0 {
		t.Errorf("CV = %v, want StdDev/Mean", r.CV)
	}
	if z := Describe(0, 0); z.CV != 0 {
		t.Errorf("zero-mean CV = %v, want 0", z.CV)
	}
	if e := Describe(); e.N != 0 || e.CV != 0 {
		t.Errorf("empty Describe = %+v", e)
	}
}

// TestDegenerateInputContract pins the package contract the fleet and
// robustness JSON reports depend on: every summary stays finite for
// empty, single-element and NaN/Inf-polluted samples — a NaN is not
// representable in JSON, so a single poisoned repetition must not
// make a whole fleet report unmarshalable. This test fails if the
// finite-sample filtering is reverted.
func TestDegenerateInputContract(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)

	// NaN/Inf samples are dropped, not propagated.
	if got := Median(nan, 1, 3); got != 2 {
		t.Errorf("Median(NaN,1,3) = %v, want 2 (NaN dropped)", got)
	}
	if got := Mean(nan, 2, 4); got != 3 {
		t.Errorf("Mean(NaN,2,4) = %v, want 3", got)
	}
	if got := StdDev(inf, 5, 5); got != 0 {
		t.Errorf("StdDev(Inf,5,5) = %v, want 0", got)
	}
	if got := Max(nan, 7); got != 7 {
		t.Errorf("Max(NaN,7) = %v, want 7", got)
	}
	if got := Min(inf, 7); got != 7 {
		t.Errorf("Min(Inf,7) = %v, want 7", got)
	}

	// An all-non-finite sample degrades like an empty one.
	if got := Median(nan, nan); got != 0 {
		t.Errorf("all-NaN Median = %v, want 0", got)
	}

	// Describe: every field finite, N counts the summarised samples.
	for name, r := range map[string]Robust{
		"empty":    Describe(),
		"single":   Describe(42),
		"poisoned": Describe(nan, 10, inf, 20),
		"all-nan":  Describe(nan, nan),
	} {
		for field, v := range map[string]float64{
			"Min": r.Min, "Median": r.Median, "Mean": r.Mean,
			"Max": r.Max, "StdDev": r.StdDev, "CV": r.CV,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s Describe %s = %v, want finite", name, field, v)
			}
		}
	}
	if r := Describe(42); r.N != 1 || r.Min != 42 || r.Median != 42 || r.Mean != 42 || r.Max != 42 || r.StdDev != 0 || r.CV != 0 {
		t.Errorf("reps=1 Describe = %+v, want location stats 42 and spread stats 0", r)
	}
	if r := Describe(nan, 10, inf, 20); r.N != 2 || r.Min != 10 || r.Max != 20 {
		t.Errorf("poisoned Describe = %+v, want N=2 over the finite samples", r)
	}

	// The filtered summary must survive a JSON round trip.
	if _, err := json.Marshal(Describe(nan, 1)); err != nil {
		t.Errorf("Describe with NaN sample not marshalable: %v", err)
	}
}

// TestFiniteDoesNotMutate guards the filter's aliasing: dropping a
// sample must copy, never compact the caller's slice in place.
func TestFiniteDoesNotMutate(t *testing.T) {
	xs := []float64{1, math.NaN(), 3}
	Median(xs...)
	if xs[0] != 1 || !math.IsNaN(xs[1]) || xs[2] != 3 {
		t.Errorf("filter mutated its input: %v", xs)
	}
}
