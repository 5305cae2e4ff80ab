// Package stats provides the statistical accumulators used to summarise
// simulation output: streaming mean/variance (Welford), miss-rate ratio
// counters, Student-t confidence intervals across independent replications,
// and simple fixed-width histograms.
//
// The paper reports "fraction of missed deadlines" per task class with a
// 95% confidence interval of roughly ±0.35 percentage points obtained from
// two one-million-time-unit runs. We reproduce that methodology with
// independent replications: each replication yields one ratio estimate, and
// the t-interval is computed over replications.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance without storing
// samples. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean))
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 if empty.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into w (parallel Welford combination).
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n1, n2 := float64(w.n), float64(other.n)
	delta := other.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += other.m2 + delta*delta*n1*n2/total
	w.n += other.n
}

// Ratio counts successes over trials, e.g. missed deadlines over tasks.
// The zero value is ready to use.
type Ratio struct {
	Hits   int64
	Trials int64
}

// Observe records one trial; hit marks it as a success (e.g. a miss).
func (r *Ratio) Observe(hit bool) {
	r.Trials++
	if hit {
		r.Hits++
	}
}

// Value returns hits/trials, or 0 when no trials have been observed.
func (r *Ratio) Value() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Trials)
}

// Merge adds another ratio's counts into r.
func (r *Ratio) Merge(other Ratio) {
	r.Hits += other.Hits
	r.Trials += other.Trials
}

// Interval is a point estimate with a symmetric half-width at some
// confidence level.
type Interval struct {
	Mean      float64
	HalfWidth float64
	N         int // number of replications behind the estimate
}

// Lo returns the lower bound of the interval.
func (iv Interval) Lo() float64 { return iv.Mean - iv.HalfWidth }

// Hi returns the upper bound of the interval.
func (iv Interval) Hi() float64 { return iv.Mean + iv.HalfWidth }

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Lo() && x <= iv.Hi()
}

// String renders the interval as "mean ± half-width".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4f ± %.4f", iv.Mean, iv.HalfWidth)
}

// MeanCI returns the 95% Student-t confidence interval for the mean of the
// replication estimates xs. With fewer than two estimates the half-width is
// zero (a single run gives a point estimate, as in quick test modes).
func MeanCI(xs []float64) Interval {
	n := len(xs)
	if n == 0 {
		return Interval{}
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	iv := Interval{Mean: w.Mean(), N: n}
	if n >= 2 {
		se := w.StdDev() / math.Sqrt(float64(n))
		iv.HalfWidth = tQuantile95(n-1) * se
	}
	return iv
}

// tQuantile95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values beyond the table fall back to the normal
// quantile 1.96.
func tQuantile95(df int) float64 {
	table := []float64{
		0,                                                             // df = 0 unused
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Histogram is a fixed-width histogram over [lo, hi) that counts
// observations below lo in an underflow bucket; observations at or above
// hi count toward the total only. Use NewHistogram to construct one.
type Histogram struct {
	lo, hi    float64
	width     float64
	buckets   []int64
	underflow int64
	count     int64 // every observation, in range or not
	sum       float64
}

// NewHistogram builds a histogram of n equal buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket, got %d", n)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram bounds [%v, %v) are empty", lo, hi)
	}
	return &Histogram{
		lo:      lo,
		hi:      hi,
		width:   (hi - lo) / float64(n),
		buckets: make([]int64, n),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.count++
	h.sum += x
	switch {
	case x < h.lo:
		h.underflow++
	case x >= h.hi: // overflow: in the total only
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // float edge case at the upper bound
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Mean returns the mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an approximate q-quantile of the recorded
// observations. The interpolation rule: the target rank q*count is
// located in the cumulative bucket counts, and the estimate is the
// bucket's lower edge plus a linear fraction of its width — i.e.
// observations are assumed uniform within a bucket, so the estimate is
// exact at bucket edges and at most one bucket width off inside.
// Underflow mass is pinned to lo, overflow mass to hi; q outside [0, 1]
// is clamped to the nearest bound, so Quantile(0) is never below lo and
// Quantile(1) never above hi. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := float64(q * float64(h.count))
	cum := float64(h.underflow)
	if target <= cum {
		return h.lo
	}
	for i, b := range h.buckets {
		next := cum + float64(b)
		if target <= next && b > 0 {
			frac := (target - cum) / float64(b)
			return h.lo + float64((float64(i)+frac)*h.width)
		}
		cum = next
	}
	return h.hi
}

// Median returns the exact median of xs (not streaming; used in tests and
// small report paths). It returns 0 for an empty slice.
func Median(xs []float64) float64 {
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
