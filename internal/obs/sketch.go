package obs

import (
	"math"
	"slices"
)

// Sketch is a mergeable log-bucketed quantile sketch in the DDSketch
// mold: observations are counted in geometrically sized buckets, so any
// quantile is recovered with a bounded *relative* error (about
// sketchAlpha) regardless of the value range — unlike the fixed-bucket
// stats.Histogram, whose absolute bucket width clips long tails.
//
// The sketch exists for cross-replication aggregation: two sketches fed
// from different shards merge by adding bucket counts, and the merged
// quantiles are exactly the quantiles the union of observations would
// have produced (merge is lossless, associative and commutative on the
// integer bucket counts). Slack and lateness can be negative, so the
// sketch keeps mirrored bucket runs for the two signs plus an exact zero
// band around ±sketchMinValue.
//
// All mutation happens on the simulation goroutine; reads happen at
// export time. The zero value is not ready — construct with NewSketch.
type Sketch struct {
	gamma float64 // bucket growth factor (1+alpha)/(1-alpha)

	pos  denseBuckets // buckets for x >= sketchMinValue
	neg  denseBuckets // buckets for x <= -sketchMinValue (keyed on |x|)
	zero uint64       // |x| < sketchMinValue

	count uint64
	sum   float64
	min   float64
	max   float64
}

const (
	// sketchAlpha is the relative accuracy target: a reported quantile q̂
	// satisfies |q̂ - q| <= sketchAlpha * |q|.
	sketchAlpha = 0.01
	// sketchMinValue is the key-space floor: magnitudes below it land in
	// the exact zero band, keeping bucket indices small.
	sketchMinValue = 1e-9
)

// sketchKeyMin and sketchKeyMax bound the key of every finite magnitude
// a sketch buckets: key(sketchMinValue) = -1036 and key(MaxFloat64) =
// 35488 at the package accuracy, so a dense bucket run never holds more
// than about 36.5k counts (290 KB). Only a non-finite magnitude keys
// outside the window.
var sketchKeyMin, sketchKeyMax = func() (int32, int32) {
	s := NewSketch()
	return s.key(sketchMinValue), s.key(math.MaxFloat64)
}()

// NewSketch returns an empty sketch at the package accuracy (1% relative
// error).
func NewSketch() *Sketch {
	gamma := (1 + sketchAlpha) / (1 - sketchAlpha)
	return &Sketch{
		gamma: gamma,
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}
}

// key maps a magnitude (>= sketchMinValue) to its bucket index,
// ceil(log(mag)/logGamma), exactly as math.Log computes it but mostly
// without calling it. Write mag = 2^e·c·(1+r), where c = 1+i/256 comes
// from the top sketchKeyBits mantissa bits and 0 <= r < 2^-8. Then
// log(mag)/logGamma = e·log(2)/logGamma + log(c)/logGamma +
// log(1+r)/logGamma, and the first two terms come from a table.
// Three terms of the log(1+r) series leave an error below r^4/4 < 6e-11,
// or 3e-9 key units; the table entries, the products and the sums add
// rounding below 3e-11 key units, and the reference expression itself
// is within 1e-11 key units of the true quotient. So the estimate lies
// within 4e-9 key units of the reference quotient, and when it is at
// least sketchKeyMargin = 1e-6 from every integer both have the same
// ceiling. Otherwise, and for subnormal or non-positive input, key
// evaluates the reference expression itself. The fallback runs for
// about two magnitudes in a million; TestSketchKeyExact checks the
// estimate at every bucket boundary in the key window. An infinite
// magnitude keys to sketchKeyInf: converting the reference's +Inf to
// int32 is left to the platform by the Go spec (amd64 yields the
// smallest int32, arm64 the largest).
func (s *Sketch) key(mag float64) int32 {
	b := math.Float64bits(mag)
	if e := int64(b>>52) - 1; uint64(e) < 0x7fe { // positive, normal, finite
		c := &sketchKeyTable[b>>(52-sketchKeyBits)&(1<<sketchKeyBits-1)]
		r := float64(b&(1<<(52-sketchKeyBits)-1)) * c.inv
		t := float64(float64(e-1022)*sketchKeyLn2) + c.key +
			float64(r*(sketchKeyC1+float64(r*(sketchKeyC2+float64(r*sketchKeyC3)))))
		// t+sketchKeyShift is positive for every normal magnitude, so
		// converting it to an integer floors it.
		u := t + sketchKeyShift
		n := int64(u)
		if f := u - float64(n); f >= sketchKeyMargin && f <= 1-sketchKeyMargin {
			return int32(n - sketchKeyShift + 1)
		}
	}
	if math.IsInf(mag, 1) {
		return sketchKeyInf
	}
	return int32(math.Ceil(math.Log(mag) / sketchLogGamma))
}

const (
	// sketchKeyBits is how many leading mantissa bits index
	// sketchKeyTable.
	sketchKeyBits = 8
	// sketchKeyMargin is how close to an integer key's estimate may lie
	// before it falls back to math.Log; see key for the error bound.
	sketchKeyMargin = 1e-6
	// sketchKeyShift lifts every normal magnitude's key quotient, which
	// lies within ±35,500, above zero.
	sketchKeyShift = 1 << 16
	// sketchKeyInf is the key of an infinite magnitude, above every
	// finite one, so ±Inf sort and export as the outermost buckets.
	sketchKeyInf = math.MaxInt32
)

// sketchLogGamma is the log of the bucket growth factor, the width of
// one bucket in natural-log units. sketchKeyLn2 is log(2) in key units,
// and sketchKeyC1..C3 are the coefficients of the log(1+r) series
// r - r²/2 + r³/3 in key units.
var (
	sketchLogGamma = math.Log((1 + sketchAlpha) / (1 - sketchAlpha))
	sketchKeyLn2   = math.Ln2 / sketchLogGamma
	sketchKeyC1    = 1 / sketchLogGamma
	sketchKeyC2    = -1 / (2 * sketchLogGamma)
	sketchKeyC3    = 1 / (3 * sketchLogGamma)
)

// sketchKeyTable holds, for c = 1+i/256, log(c) in key units and
// 2^-52/c, which turns the low mantissa bits into r.
var sketchKeyTable = func() (tab [1 << sketchKeyBits]struct{ key, inv float64 }) {
	for i := range tab {
		c := 1 + float64(float64(i)/(1<<sketchKeyBits))
		tab[i].key = math.Log(c) / sketchLogGamma
		tab[i].inv = 0x1p-52 / c
	}
	return tab
}()

// valueOf returns the representative magnitude of bucket k (the
// geometric midpoint, which bounds the relative error by sketchAlpha).
func (s *Sketch) valueOf(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (1 + s.gamma)
}

// Add folds one observation into the sketch. NaN is ignored (it has no
// place on the value axis and would poison sum/min/max). The common
// case, a magnitude at or above sketchMinValue of either sign, takes
// the first or second case and no other test.
func (s *Sketch) Add(x float64) {
	switch {
	case x >= sketchMinValue:
		s.pos.add(s.key(x), 1)
	case x <= -sketchMinValue:
		s.neg.add(s.key(-x), 1)
	case !math.IsNaN(x): // |x| < sketchMinValue
		s.zero++
	default:
		return
	}
	s.count++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// Merge folds other into s. Bucket counts add, so merging shards in any
// grouping or order yields identical bucket contents; min/max/count are
// exact, and sum is folded in the caller's order (Merged adds shards in
// replication-index order, making merged sums bit-stable too).
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.count == 0 {
		return
	}
	s.pos.merge(&other.pos)
	s.neg.merge(&other.neg)
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the exact sum of observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact mean, or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation, or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-quantile (q clamped to [0, 1]) with relative
// error bounded by the sketch accuracy; q=0 and q=1 return the exact min
// and max. An empty sketch reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	// Walk the value axis left to right: negative buckets from the most
	// negative magnitude down, the zero band, then positive buckets up.
	rank := q * float64(s.count-1)
	cum := float64(0)
	if k, ok := s.neg.rankKey(&cum, rank, true); ok {
		return -s.valueOf(k)
	}
	cum += float64(s.zero)
	if rank < cum {
		return 0
	}
	if k, ok := s.pos.rankKey(&cum, rank, false); ok {
		return s.valueOf(k)
	}
	return s.Max()
}

// Quantiles evaluates Quantile at each q in qs.
func (s *Sketch) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s.Quantile(q)
	}
	return out
}

// clone returns a deep copy of s that shares no state with it.
func (s *Sketch) clone() *Sketch {
	cp := *s
	cp.pos.counts = slices.Clone(s.pos.counts)
	cp.neg.counts = slices.Clone(s.neg.counts)
	return &cp
}

// denseBuckets holds one sign's bucket counts: counts[i] counts key
// lo+i, over a contiguous key range that grows geometrically toward new
// keys and never past [sketchKeyMin, sketchKeyMax]. Adding to a bucket
// inside the range is an index and an increment, with no hashing. An
// infinite magnitude, the only one keyed outside the window, is counted
// in inf, the bucket of sketchKeyInf above every finite key.
type denseBuckets struct {
	lo     int32
	counts []uint64
	inf    uint64
}

// denseBucketsPad is the initial range of a bucket run, in keys.
const denseBucketsPad = 32

// add adds c observations to bucket k, which is sketchKeyInf or lies in
// the window. Inside the current range that is an index and an
// increment; a finite key outside it grows the range.
func (d *denseBuckets) add(k int32, c uint64) {
	if i := int(k) - int(d.lo); uint(i) < uint(len(d.counts)) {
		d.counts[i] += c
		return
	}
	if c == 0 {
		return
	}
	if k == sketchKeyInf {
		d.inf += c
		return
	}
	d.counts[d.grow(k)] += c
}

// grow widens the range to cover key k, which lies inside the window,
// and returns k's index. The side that grows gains at least as many
// keys as the range already holds, so a stream of ever-wider keys costs
// amortized constant time per key.
func (d *denseBuckets) grow(k int32) int {
	lo, hi := k-denseBucketsPad/2, k+denseBucketsPad/2 // hi exclusive
	if len(d.counts) > 0 {
		pad := int32(len(d.counts))
		lo, hi = d.lo, d.lo+pad
		if k < lo {
			lo = k - pad
		} else {
			hi = k + 1 + pad
		}
	}
	lo, hi = max(lo, sketchKeyMin), min(hi, sketchKeyMax+1)
	counts := make([]uint64, hi-lo)
	if len(d.counts) > 0 {
		copy(counts[d.lo-lo:], d.counts)
	}
	d.lo, d.counts = lo, counts
	return int(k - lo)
}

// merge adds every bucket of o into d.
func (d *denseBuckets) merge(o *denseBuckets) {
	for i, c := range o.counts {
		d.add(o.lo+int32(i), c)
	}
	d.inf += o.inf
}

// rankKey adds the bucket counts to *cum in key order, descending when
// down is set, and returns the key of the first bucket that lifts *cum
// above rank.
func (d *denseBuckets) rankKey(cum *float64, rank float64, down bool) (int32, bool) {
	if down {
		if *cum += float64(d.inf); rank < *cum {
			return sketchKeyInf, true
		}
		for i := len(d.counts) - 1; i >= 0; i-- {
			if *cum += float64(d.counts[i]); rank < *cum {
				return d.lo + int32(i), true
			}
		}
		return 0, false
	}
	for i, c := range d.counts {
		if *cum += float64(c); rank < *cum {
			return d.lo + int32(i), true
		}
	}
	if *cum += float64(d.inf); rank < *cum {
		return sketchKeyInf, true
	}
	return 0, false
}
