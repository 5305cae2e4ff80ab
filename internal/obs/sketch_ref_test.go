package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSketch is the map-keyed sketch the dense Sketch replaced, kept as
// the differential reference: it buckets with the same key function
// and walks its maps in sorted key order, so both must report identical
// buckets, quantiles, counts, sums and extremes on any stream.
type refSketch struct {
	pos, neg map[int32]uint64
	zero     uint64
	count    uint64
	sum      float64
	min, max float64
}

func newRefSketch() *refSketch {
	return &refSketch{pos: map[int32]uint64{}, neg: map[int32]uint64{}, min: math.Inf(1), max: math.Inf(-1)}
}

func refKey(mag float64) int32 {
	if math.IsInf(mag, 1) {
		return math.MaxInt32
	}
	return int32(math.Ceil(math.Log(mag) / math.Log((1+sketchAlpha)/(1-sketchAlpha))))
}

func (s *refSketch) Add(x float64) {
	if math.IsNaN(x) {
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
	switch {
	case x >= sketchMinValue:
		s.pos[refKey(x)]++
	case x <= -sketchMinValue:
		s.neg[refKey(-x)]++
	default:
		s.zero++
	}
}

func (s *refSketch) Merge(o *refSketch) {
	if o.count == 0 {
		return
	}
	for k, c := range o.pos {
		s.pos[k] += c
	}
	for k, c := range o.neg {
		s.neg[k] += c
	}
	s.zero += o.zero
	s.count += o.count
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

func refSortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (s *refSketch) buckets() (neg, pos []SketchBucket, zero uint64) {
	neg = make([]SketchBucket, 0, len(s.neg))
	for _, k := range refSortedKeys(s.neg) {
		neg = append(neg, SketchBucket{Key: k, Count: s.neg[k]})
	}
	pos = make([]SketchBucket, 0, len(s.pos))
	for _, k := range refSortedKeys(s.pos) {
		pos = append(pos, SketchBucket{Key: k, Count: s.pos[k]})
	}
	return neg, pos, s.zero
}

func (s *refSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	gamma := (1 + sketchAlpha) / (1 - sketchAlpha)
	valueOf := func(k int32) float64 { return 2 * math.Pow(gamma, float64(k)) / (1 + gamma) }
	rank := q * float64(s.count-1)
	cum := float64(0)
	keys := refSortedKeys(s.neg)
	for i := len(keys) - 1; i >= 0; i-- {
		cum += float64(s.neg[keys[i]])
		if rank < cum {
			return -valueOf(keys[i])
		}
	}
	cum += float64(s.zero)
	if rank < cum {
		return 0
	}
	for _, k := range refSortedKeys(s.pos) {
		cum += float64(s.pos[k])
		if rank < cum {
			return valueOf(k)
		}
	}
	return s.max
}

// sketchFuzzSpecials are the edge values a fuzz stream draws from: the
// zero-band boundary, signed zeros, subnormals, huge magnitudes,
// infinities and NaN.
var sketchFuzzSpecials = []float64{
	sketchMinValue, -sketchMinValue, math.Nextafter(sketchMinValue, 0), -math.Nextafter(sketchMinValue, 0),
	0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 1e10,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 0.5, 42, -17.25,
}

// sketchFuzzStream decodes data into three value shards. Each 9-byte
// chunk is a selector byte and a payload: the selector picks a special
// value, the raw float64 bits, or a small decimal (the common case for
// slack and lateness), and its top bits choose the shard.
func sketchFuzzStream(data []byte) [3][]float64 {
	var shards [3][]float64
	for len(data) >= 9 {
		sel, payload := data[0], binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		var v float64
		switch sel % 3 {
		case 0:
			v = sketchFuzzSpecials[payload%uint64(len(sketchFuzzSpecials))]
		case 1:
			v = math.Float64frombits(payload)
		default:
			v = float64(int32(payload)) / 1000
		}
		shards[(sel/3)%3] = append(shards[(sel/3)%3], v)
	}
	return shards
}

// sameFloat is equality that treats NaN as equal to NaN and tells
// signed zeros apart.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

var sketchFuzzQuantiles = []float64{0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-9, 1}

// checkSketchParity fails unless s reports exactly what ref does.
func checkSketchParity(t *testing.T, what string, s *Sketch, ref *refSketch) {
	t.Helper()
	neg, pos, zero := s.buckets()
	rneg, rpos, rzero := ref.buckets()
	if !sameBuckets(neg, rneg) || !sameBuckets(pos, rpos) || zero != rzero {
		t.Fatalf("%s: buckets differ:\n neg %v\n ref %v\n pos %v\n ref %v\n zero %d ref %d",
			what, neg, rneg, pos, rpos, zero, rzero)
	}
	if s.Count() != ref.count || !sameFloat(s.Sum(), ref.sum) {
		t.Fatalf("%s: count/sum %d/%g, ref %d/%g", what, s.Count(), s.Sum(), ref.count, ref.sum)
	}
	if ref.count > 0 && (!sameFloat(s.Min(), ref.min) || !sameFloat(s.Max(), ref.max)) {
		t.Fatalf("%s: min/max %g/%g, ref %g/%g", what, s.Min(), s.Max(), ref.min, ref.max)
	}
	for _, q := range sketchFuzzQuantiles {
		if got, want := s.Quantile(q), ref.Quantile(q); !sameFloat(got, want) {
			t.Fatalf("%s: q=%g: %g, ref %g", what, q, got, want)
		}
	}
}

func sameBuckets(a, b []SketchBucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzSketchParity drives the dense Sketch and the map-keyed reference
// with the same streams: every shard and every merge of shards must
// agree with the reference, merging must be commutative and associative
// on bucket contents, and a snapshot's clone must be lossless.
func FuzzSketchParity(f *testing.F) {
	chunk := func(sel byte, v uint64) []byte {
		b := []byte{sel, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[1:], v)
		return b
	}
	var all []byte
	for i := range sketchFuzzSpecials {
		all = append(all, chunk(byte(3*(i%3)), uint64(i))...)
	}
	f.Add(all)
	f.Add(append(chunk(1, math.Float64bits(1e-300)), chunk(4, math.Float64bits(-3e200))...))
	f.Add(append(chunk(2, 12345), chunk(5, uint64(1<<32-777))...))
	f.Add([]byte{})
	// ±Inf beside finite values of both signs in every shard: an infinite
	// magnitude must key above every finite one.
	// Shard 0 gets +Inf and 1, shard 1 -Inf and -1 (specials 13 and 14,
	// decimals ±1000/1000), shard 2 +Inf and the raw bits of -Inf.
	f.Add(slices.Concat(chunk(0, 13), chunk(2, 1000), chunk(3, 14), chunk(5, uint64(1<<32-1000)),
		chunk(6, 13), chunk(7, math.Float64bits(math.Inf(-1)))))
	// Just below, at and just above a sample of bucket boundaries, both
	// signs, spread over the three shards: where a cheaper key would
	// first part from math.Log.
	var edges []byte
	for i, k := range []int32{sketchKeyMin, -700, -1, 0, 1, 2, 57, 1000, 20000, sketchKeyMax} {
		b := math.Float64bits(sketchKeyBoundary(k))
		for d := uint64(0); d < 3; d++ {
			edges = append(edges, chunk(byte(1+3*(i%3)), b-1+d)...)
			edges = append(edges, chunk(byte(1+3*((i+1)%3)), b-1+d|1<<63)...)
		}
	}
	f.Add(edges)
	f.Fuzz(func(t *testing.T, data []byte) {
		shards := sketchFuzzStream(data)
		var sk [3]*Sketch
		var ref [3]*refSketch
		for i, vals := range shards {
			sk[i], ref[i] = NewSketch(), newRefSketch()
			for _, v := range vals {
				sk[i].Add(v)
				ref[i].Add(v)
			}
			checkSketchParity(t, "shard", sk[i], ref[i])
		}
		merge := func(order ...int) (*Sketch, *refSketch) {
			m, r := NewSketch(), newRefSketch()
			for _, i := range order {
				m.Merge(sk[i])
				r.Merge(ref[i])
			}
			return m, r
		}
		abc, rabc := merge(0, 1, 2)
		checkSketchParity(t, "merge abc", abc, rabc)
		cab, rcab := merge(2, 0, 1)
		checkSketchParity(t, "merge cab", cab, rcab)
		// (a+b)+c and a+(b+c): the same bucket counts either way. The
		// extremes agree numerically; which signed zero wins a tie
		// depends on the order.
		ab, _ := merge(0, 1)
		ab.Merge(sk[2])
		bc, _ := merge(1, 2)
		a, _ := merge(0)
		a.Merge(bc)
		for _, m := range []*Sketch{cab, ab, a} {
			n1, p1, z1 := abc.buckets()
			n2, p2, z2 := m.buckets()
			if !sameBuckets(n1, n2) || !sameBuckets(p1, p2) || z1 != z2 || m.Count() != abc.Count() ||
				m.Min() != abc.Min() || m.Max() != abc.Max() {
				t.Fatalf("merge grouping changed the bucket contents")
			}
		}
		checkSketchParity(t, "cloned", abc.clone(), rabc)
	})
}

// sketchKeyBoundary returns the smallest positive normal float64 whose
// reference key is at least k, found by bisection on the bit pattern
// (the reference key never decreases as the magnitude grows).
func sketchKeyBoundary(k int32) float64 {
	lo, hi := math.Float64bits(0x1p-1022), math.Float64bits(math.MaxFloat64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if refKey(math.Float64frombits(mid)) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(lo)
}

// TestSketchKeyExact proves the table-driven key equal to the math.Log
// reference where they could part: at every bucket boundary of the key
// window and 4 ulps either side of it. It then samples 10M
// log-uniform magnitudes across the window.
func TestSketchKeyExact(t *testing.T) {
	s := NewSketch()
	check := func(x float64) {
		if got, want := s.key(x), refKey(x); got != want {
			t.Fatalf("key(%v) [bits %#x] = %d, reference %d", x, math.Float64bits(x), got, want)
		}
	}
	for k := sketchKeyMin; k <= sketchKeyMax; k++ {
		b := math.Float64bits(sketchKeyBoundary(k))
		for d := uint64(0); d <= 8; d++ {
			check(math.Float64frombits(b - 4 + d))
		}
	}
	rnd := rand.New(rand.NewSource(1))
	lo, hi := math.Log(sketchMinValue), math.Log(math.MaxFloat64)
	for i := 0; i < 10_000_000; i++ {
		check(math.Exp(lo + (hi-lo)*rnd.Float64()))
	}
	for _, x := range []float64{sketchMinValue, 1, math.MaxFloat64, math.Inf(1), 5e-324, 0x1p-1022} {
		check(x)
	}
}
