// Package rng provides seeded, splittable random-number streams for the
// simulator.
//
// The paper's DeNet simulations draw from several independent stochastic
// processes (per-node local arrivals, a global arrival stream, service
// times, slack). To keep experiments reproducible and to decouple the
// processes statistically, each consumer receives its own Stream derived
// deterministically from a master seed via a SplitMix64 sequence. Changing
// one consumer's draw pattern therefore never perturbs another's.
//
// A Stream is math/rand's additive lagged-Fibonacci generator, owned
// rather than wrapped: every draw is bit for bit what
// rand.New(rand.NewSource(s)) gives for the stream's SplitMix64-derived
// seed s (see TestStreamMatchesMathRand), so every recorded result stays
// valid. The 607-word state is built only when a stream first needs it:
// the generator's first 273 draws read seed words that no earlier draw
// has written, so a young stream computes each of them straight from its
// seed.
package rng

import (
	"math"
	"math/bits"

	"repro/internal/portable"
)

// Parameters of math/rand's generator (src/math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// Stream is a deterministic pseudo-random stream with the distribution
// helpers the simulation model needs. It is not safe for concurrent use;
// the simulator is single-threaded by design. A Stream must not be copied
// by value: a copy would share the generator state with the original.
//
// A new Stream is young: it holds only its Lehmer seed and the number of
// draws consumed, and allocates the ~5 KB generator state the first time
// it needs a 274th draw or calls Choose. A simulated fleet gives every
// node its own stream and most of them never draw that far.
type Stream struct {
	// chooseBuf backs Choose's result; reused across calls so per-task
	// placement draws do not allocate.
	chooseBuf []int
	// chooseMul[i] is the fastmod multiplier for the divisor i+1 (see
	// Choose). Entries depend only on i, so the table only ever grows.
	chooseMul []uint64
	// vec is the generator state, nil while the stream is young.
	vec       *[rngLen]int64
	tap, feed int
	// lehmer is math/rand's seeding value, in [1, 2³¹−2]; drawn counts
	// the draws a young stream has consumed.
	lehmer uint32
	drawn  uint32
}

// NewStream returns a stream seeded with seed.
func NewStream(seed uint64) *Stream {
	return &Stream{lehmer: lehmerSeed(int64(splitmix64(&seed)))}
}

// lehmerSeed reduces a math/rand seed to its Lehmer seeding value exactly
// as rngSource.Seed does.
func lehmerSeed(seed int64) uint32 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint32(seed)
}

// seedWord returns word i of the freshly seeded state of the stream with
// Lehmer seed x0. math/rand steps the Lehmer generator x ← 48271·x mod
// (2³¹−1) 20 times, then three times per word, so word i starts at step
// 21+3i; lehmerJump jumps straight there.
func seedWord(x0 uint32, i int) int64 {
	x := lehmerMul(uint64(x0), lehmerJump[i])
	mid := lehmerStep(x)
	lo := lehmerStep(mid)
	return int64(x)<<40 ^ int64(mid)<<20 ^ int64(lo) ^ rngCooked[i]
}

// lehmerJump[i] is 48271^(21+3i) mod (2³¹−1).
var lehmerJump = func() (jump [rngLen]uint64) {
	jump[0] = lehmerA21
	for i := 1; i < rngLen; i++ {
		jump[i] = lehmerMul(jump[i-1], lehmerA3)
	}
	return jump
}()

// Powers of math/rand's seeding multiplier 48271, modulo 2³¹−1.
const (
	lehmerA   = 48271
	lehmerA3  = 1291394886
	lehmerA21 = 638022372
)

// lehmerStep returns 48271·x mod (2³¹−1) for x in [1, 2³¹−2] with a
// Mersenne-prime reduction. math/rand evaluates its seeding step with
// Schrage's method instead; both give the residue in [1, 2³¹−2].
func lehmerStep(x uint64) uint64 {
	t := x * lehmerA // < 2⁴⁷
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// lehmerMul returns x·c mod (2³¹−1) for x, c in [1, 2³¹−2]; the wider
// product needs a second fold.
func lehmerMul(x, c uint64) uint64 {
	t := x * c // < 2⁶²
	t = t&int32max + t>>31
	t = t&int32max + t>>31 // ≤ 2³¹
	if t >= int32max {
		t -= int32max
	}
	return t
}

// materialise builds a young stream's generator state: it seeds vec
// exactly as math/rand's rngSource.Seed, then replays the draws the
// stream consumed while young.
func (s *Stream) materialise() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = seedWord(s.lehmer, i)
	}
	s.tap = 0
	s.feed = rngLen - rngTap
	for range s.drawn {
		s.step()
	}
}

// Splitter derives statistically independent child streams from one master
// seed. Every call to Stream returns the next child.
type Splitter struct {
	state uint64
}

// NewSplitter returns a splitter rooted at the master seed.
func NewSplitter(seed uint64) *Splitter {
	return &Splitter{state: seed}
}

// Stream returns the next derived child stream.
func (s *Splitter) Stream() *Stream {
	return NewStream(splitmix64(&s.state))
}

// Seed returns the next derived raw seed, for nesting splitters.
func (s *Splitter) Seed() uint64 {
	return splitmix64(&s.state)
}

// splitmix64 advances state and returns the next output of the SplitMix64
// generator (Steele, Lea & Flood 2014). It is used only for seed
// derivation, never as the simulation generator itself.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// int63 advances the generator and returns a non-negative 63-bit value,
// as math/rand's Int63.
func (s *Stream) int63() int64 {
	if s.vec == nil {
		return s.youngInt63()
	}
	return s.step()
}

// step is int63 for a materialised stream. It makes no call, so it
// inlines where int63, which must call youngInt63, cannot.
func (s *Stream) step() int64 {
	vec := s.vec
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := vec[s.feed] + vec[s.tap]
	vec[s.feed] = x
	return x & rngMask
}

// youngInt63 is int63 for a young stream. Draw m ≤ 273 of a freshly
// seeded generator adds seed words 334−m and 607−m, neither of which an
// earlier draw has written; draw 274 would read word 333, which draw 1
// overwrote, so the stream materialises first.
func (s *Stream) youngInt63() int64 {
	if s.drawn == rngTap {
		s.materialise()
		return s.step()
	}
	s.drawn++
	m := int(s.drawn)
	x := seedWord(s.lehmer, rngLen-rngTap-m) + seedWord(s.lehmer, rngLen-m)
	return x & rngMask
}

// int31 returns a non-negative 31-bit value, as math/rand's Int31.
func (s *Stream) int31() int32 { return int32(s.int63() >> 32) }

// int31n returns a uniform value in [0, n) for n > 0 with math/rand's
// Int31n rejection scheme.
func (s *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

// int63n returns a uniform value in [0, n) for n > 0 with math/rand's
// Int63n rejection scheme.
func (s *Stream) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	if f := s.float64(); 0 <= f && f < 1 {
		return f
	}
	// A young stream, or a draw that rounded up: Int63 can lie close
	// enough to 2⁶³ that the quotient rounds to 1.0; math/rand draws
	// again then, and so must this stream. int63 materialises a young
	// stream when a draw needs it.
	for {
		if f := float64(s.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// float64 is one Float64 draw for a materialised stream, without
// Float64's redraw: it returns -1 without drawing on a young stream, and
// 1 when the draw's quotient rounds up. Either way the caller falls back
// to Float64, which draws again as math/rand does. It makes no call, so
// it inlines into Exp and Uniform, the per-task draws.
func (s *Stream) float64() float64 {
	if s.vec == nil {
		return -1
	}
	return float64(s.step()) / (1 << 63)
}

// Exp returns an exponential draw with the given mean.
// Exp panics if mean is not positive, because a non-positive mean is a
// programming error in workload construction, not a runtime condition.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: exponential mean must be positive")
	}
	u := s.float64()
	if !(0 <= u && u < 1) {
		u = s.Float64()
	}
	// Inverse-CDF; 1-U in (0,1] avoids log(0).
	return -mean * math.Log(1-u)
}

// Uniform returns a uniform draw in [lo, hi). It accepts lo == hi (a
// degenerate point distribution) and panics if lo > hi.
func (s *Stream) Uniform(lo, hi float64) float64 {
	if lo > hi {
		panic("rng: uniform bounds inverted")
	}
	u := s.float64()
	if !(0 <= u && u < 1) {
		u = s.Float64()
	}
	return lo + float64((hi-lo)*u)
}

// LogUniform returns a draw whose logarithm is uniform on
// [log(lo), log(hi)]. It is used to model multiplicative execution-time
// estimation error ("off by a factor of f" in either direction).
// Both bounds must be positive. The exponential is portable.Exp, so a
// draw is the same on every GOARCH and CPU.
func (s *Stream) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 || lo > hi {
		panic("rng: log-uniform bounds must be positive and ordered")
	}
	return portable.Exp(s.Uniform(math.Log(lo), math.Log(hi)))
}

// IntN returns a uniform integer in [0, n). n must be positive.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN argument must be positive")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// IntRange returns a uniform integer in the closed interval [lo, hi].
func (s *Stream) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: int range inverted")
	}
	return lo + s.IntN(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	m := make([]int, n)
	// The i=0 iteration swaps m[0] with itself but still consumes a draw,
	// exactly as math/rand's Perm does.
	for i := 0; i < n; i++ {
		j := s.IntN(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Choose returns k distinct integers drawn uniformly from [0, n) in random
// order. It panics if k < 0 or k > n, which would indicate an impossible
// request such as placing more parallel subtasks than there are nodes.
//
// The returned slice aliases a per-stream scratch buffer and is only
// valid until the next Choose call on the same stream; callers that need
// to keep it must copy. The result is Perm(n)[:k] and Choose consumes
// exactly Perm(n)'s n draws, i=0 included, so the rest of the stream is
// unchanged by how Choose computes it:
//
//   - Positions ≥ k of the inside-out shuffle never flow back into
//     positions < k, so only a k-long prefix is kept: after the first k
//     steps, in a loop of their own, step i just records i at position
//     j when j < k, which a one-multiply necessary test rules out for
//     most draws before j is computed.
//   - Int31n(i+1)'s rejection bound and modulus come from Lemire's
//     fastmod with a per-stream multiplier table instead of two
//     hardware divides per draw.
//   - The generator runs in segments that end where tap or feed wraps
//     (or after the draws still needed), so the per-draw index updates
//     need no wrap checks. A draw Int31n rejects simply does not advance
//     i, exactly as math/rand's retry loop consumes it.
func (s *Stream) Choose(n, k int) []int {
	if k < 0 {
		panic("rng: cannot choose a negative number of elements")
	}
	if k > n {
		panic("rng: cannot choose more elements than available")
	}
	if n > int32max {
		panic("rng: Choose population exceeds 2³¹−1")
	}
	if s.vec == nil {
		s.materialise()
	}
	if cap(s.chooseBuf) < k {
		s.chooseBuf = make([]int, k)
	}
	m := s.chooseBuf[:k]
	mul := s.growChooseTable(n)

	tap, feed := s.tap, s.feed
	for i := 0; i < n; {
		// int63's recurrence, seg draws at a time: step q (descending,
		// i.e. in draw order) sets fs[q] += ts[q]. The two windows may
		// overlap; walking q in draw order keeps the sequential result.
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		seg := min(tap, feed, n-i)
		fs := s.vec[feed-seg : feed]
		ts := s.vec[tap-seg : tap]
		tap -= seg
		feed -= seg
		q := seg - 1
		for ; q >= 0 && i < k; q-- {
			x := fs[q] + ts[q]
			fs[q] = x
			v := uint64(x) << 1 >> 33 // Int31: bits 32..62
			d := uint64(i + 1)
			// Int31n accepts v <= 2³¹−1 − 2³¹ mod d, a bound of at least
			// 2³¹−d, so only draws above that need the exact bound.
			if v > 1<<31-d && v > int32max-fastmod(1<<31, mul[i], d) {
				continue
			}
			j := fastmod(v, mul[i], d)
			m[i] = m[j]
			m[j] = i
			i++
		}
		// From step k on, d = i+1 > k and a step only records i at a
		// position j = v mod d below k. fastmod's j is ⌊lo·d / 2⁶⁴⌋ for
		// lo = mul·v mod 2⁶⁴, so j < k exactly when lo·d < k·2⁶⁴, which
		// needs lo < k·mul since mul ≥ 2⁶⁴/d. That test takes a 64-bit
		// multiply where fastmod takes a 128-bit one, and k·mul < 2⁶⁴
		// because k < d < 2³². Only its rare passes take the exact
		// product.
		k64 := uint64(k)
		for ; q >= 0; q-- {
			x := fs[q] + ts[q]
			fs[q] = x
			v := uint64(x) << 1 >> 33
			d := uint64(i + 1)
			if v > 1<<31-d && v > int32max-fastmod(1<<31, mul[i], d) {
				continue
			}
			if lo := mul[i] * v; lo < k64*mul[i] {
				if j, _ := bits.Mul64(lo, d); j < k64 {
					m[j] = i
				}
			}
			i++
		}
	}
	s.tap, s.feed = tap, feed
	return m
}

// growChooseTable extends the fastmod multiplier table to cover the
// divisors 1..n and returns it.
func (s *Stream) growChooseTable(n int) []uint64 {
	if old := len(s.chooseMul); old < n {
		s.chooseMul = append(s.chooseMul, make([]uint64, n-old)...)
		for d := old + 1; d <= n; d++ {
			s.chooseMul[d-1] = math.MaxUint64/uint64(d) + 1
		}
	}
	return s.chooseMul
}

// fastmod returns a mod d for a, d < 2³² given mul = ⌊(2⁶⁴−1)/d⌋+1
// (Lemire, Kaser & Kurz 2019, "Faster remainder by direct computation").
// For d = 1 mul wraps to 0 and the result is 0, as it must be.
func fastmod(a, mul, d uint64) uint64 {
	hi, _ := bits.Mul64(mul*a, d)
	return hi
}
