package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	if w.N() != 5 {
		t.Errorf("N = %d, want 5", w.N())
	}
	if math.Abs(w.Mean()-3) > 1e-12 {
		t.Errorf("Mean = %v, want 3", w.Mean())
	}
	if math.Abs(w.Variance()-2.5) > 1e-12 {
		t.Errorf("Variance = %v, want 2.5", w.Variance())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(7)
	if w.Variance() != 0 {
		t.Errorf("single-sample variance = %v, want 0", w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, math.Mod(x, 1e6))
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var seq, wa, wb Welford
		for _, x := range a {
			seq.Add(x)
			wa.Add(x)
		}
		for _, x := range b {
			seq.Add(x)
			wb.Add(x)
		}
		wa.Merge(wb)
		if wa.N() != seq.N() {
			return false
		}
		if seq.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(seq.Mean()))
		if math.Abs(wa.Mean()-seq.Mean()) > tol {
			return false
		}
		return math.Abs(wa.Variance()-seq.Variance()) <= 1e-4*(1+seq.Variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	for i := 0; i < 100; i++ {
		r.Observe(i%4 == 0)
	}
	if got := r.Value(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Value = %v, want 0.25", got)
	}
	if r.Trials != 100 || r.Hits != 25 {
		t.Errorf("counts = %d/%d, want 25/100", r.Hits, r.Trials)
	}
}

func TestRatioEmpty(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Errorf("empty ratio Value = %v, want 0", r.Value())
	}
}

func TestRatioMerge(t *testing.T) {
	a := Ratio{Hits: 3, Trials: 10}
	b := Ratio{Hits: 2, Trials: 10}
	a.Merge(b)
	if a.Hits != 5 || a.Trials != 20 {
		t.Errorf("merged = %d/%d, want 5/20", a.Hits, a.Trials)
	}
}

func TestMeanCI(t *testing.T) {
	iv := MeanCI([]float64{10, 12, 14, 16, 18})
	if math.Abs(iv.Mean-14) > 1e-12 {
		t.Errorf("Mean = %v, want 14", iv.Mean)
	}
	if iv.HalfWidth <= 0 {
		t.Error("half-width should be positive for multiple estimates")
	}
	if !iv.Contains(14) {
		t.Error("interval should contain its mean")
	}
	// Hand check: sd = sqrt(10), se = sqrt(2), t(4) = 2.776.
	want := 2.776 * math.Sqrt(2)
	if math.Abs(iv.HalfWidth-want) > 1e-3 {
		t.Errorf("HalfWidth = %v, want %v", iv.HalfWidth, want)
	}
}

func TestMeanCISingle(t *testing.T) {
	iv := MeanCI([]float64{5})
	if iv.Mean != 5 || iv.HalfWidth != 0 {
		t.Errorf("single-run interval = %+v, want point estimate", iv)
	}
}

func TestMeanCIEmpty(t *testing.T) {
	iv := MeanCI(nil)
	if iv.Mean != 0 || iv.HalfWidth != 0 || iv.N != 0 {
		t.Errorf("empty interval = %+v", iv)
	}
}

func TestIntervalBounds(t *testing.T) {
	iv := Interval{Mean: 10, HalfWidth: 2}
	if iv.Lo() != 8 || iv.Hi() != 12 {
		t.Errorf("bounds = [%v, %v], want [8, 12]", iv.Lo(), iv.Hi())
	}
	if iv.Contains(7.9) || !iv.Contains(8) || !iv.Contains(12) || iv.Contains(12.1) {
		t.Error("Contains boundary behaviour wrong")
	}
	if iv.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestTQuantile(t *testing.T) {
	if got := tQuantile95(1); math.Abs(got-12.706) > 1e-9 {
		t.Errorf("t(1) = %v", got)
	}
	if got := tQuantile95(100); got != 1.96 {
		t.Errorf("t(100) = %v, want 1.96", got)
	}
	if got := tQuantile95(0); got != 0 {
		t.Errorf("t(0) = %v, want 0", got)
	}
}

func TestHistogramBasic(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(100)
	if h.count != 12 {
		t.Errorf("count = %d, want 12", h.count)
	}
	inRange := int64(0)
	for i, b := range h.buckets {
		if b != 1 {
			t.Errorf("bucket %d = %d, want 1", i, b)
		}
		inRange += b
	}
	if over := h.count - h.underflow - inRange; h.underflow != 1 || over != 1 {
		t.Errorf("out of range = %d/%d, want 1/1", h.underflow, over)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		h.Add(float64(i % 100))
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 2 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0.0); q > 1 {
		t.Errorf("q0 = %v, want ~0", q)
	}
	if q := h.Quantile(1.0); q < 99 {
		t.Errorf("q1 = %v, want ~100", q)
	}
}

// TestHistogramQuantilesP50P95P99 pins the p50/p95/p99 triple: with a
// uniform fill of [0, 100) the q-quantile of the bucket-interpolated
// estimator must land within one bucket of 100q.
func TestHistogramQuantilesP50P95P99(t *testing.T) {
	h, err := NewHistogram(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		h.Add(float64(i % 100))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); math.Abs(got-100*q) > 1.5 {
			t.Errorf("quantile %g = %v, want ~%v", q, got, 100*q)
		}
	}
	// A skewed distribution: 99 observations at 10, one at 90. The p50
	// must sit in the low bucket and the p99+ must reach the outlier's.
	sk, _ := NewHistogram(0, 100, 100)
	for i := 0; i < 99; i++ {
		sk.Add(10)
	}
	sk.Add(90)
	if q := sk.Quantile(0.5); q < 10 || q > 11 {
		t.Errorf("skewed p50 = %v, want in [10, 11]", q)
	}
	if q := sk.Quantile(0.995); q < 90 || q > 91 {
		t.Errorf("skewed p99.5 = %v, want in [90, 91]", q)
	}
}

func TestHistogramSum(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	h.Add(1)
	h.Add(2.5)
	h.Add(100) // overflow still contributes to the sum
	if got := h.sum; math.Abs(got-103.5) > 1e-12 {
		t.Errorf("sum = %v, want 103.5", got)
	}
	if got := h.Mean(); math.Abs(got-34.5) > 1e-12 {
		t.Errorf("mean = %v, want 34.5", got)
	}
	if h.lo != 0 || h.hi != 10 || h.width != 1 {
		t.Errorf("bounds = [%v, %v) width %v, want [0, 10) width 1", h.lo, h.hi, h.width)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets should error")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range should error")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 {
		t.Errorf("empty mean = %v, want 0", h.Mean())
	}
}

// TestHistogramQuantileEdges pins the documented boundary behavior:
// q=0 lands on the lower bound, q=1 on the upper bound, q outside
// [0, 1] clamps, and out-of-range mass pins to the bounds.
func TestHistogramQuantileEdges(t *testing.T) {
	h, err := NewHistogram(10, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{11, 13, 15, 17, 19} {
		h.Add(x)
	}
	if q := h.Quantile(0); q != 10 {
		t.Errorf("Quantile(0) = %v, want lower bound 10", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("Quantile(1) = %v, want upper bound 20", q)
	}
	// Out-of-domain q clamps rather than extrapolating.
	if q := h.Quantile(-0.5); q != h.Quantile(0) {
		t.Errorf("Quantile(-0.5) = %v, want Quantile(0) = %v", q, h.Quantile(0))
	}
	if q := h.Quantile(1.5); q != h.Quantile(1) {
		t.Errorf("Quantile(1.5) = %v, want Quantile(1) = %v", q, h.Quantile(1))
	}
	// All mass below range: mid quantiles sit at the lower bound.
	lo, _ := NewHistogram(10, 20, 5)
	lo.Add(-1)
	lo.Add(-2)
	if q := lo.Quantile(0.5); q != 10 {
		t.Errorf("underflow-only Quantile(0.5) = %v, want 10", q)
	}
	// All mass above range: quantiles pin to the upper bound.
	hi, _ := NewHistogram(10, 20, 5)
	hi.Add(25)
	hi.Add(30)
	if q := hi.Quantile(0.5); q != 20 {
		t.Errorf("overflow-only Quantile(0.5) = %v, want 20", q)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tt := range tests {
		if got := Median(tt.xs); got != tt.want {
			t.Errorf("Median(%v) = %v, want %v", tt.xs, got, tt.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated its argument")
	}
}
