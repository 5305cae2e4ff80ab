package rng

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The tests in this file pin Stream to math/rand, which stays a test-only
// reference: every recorded result of the simulator was produced by
// rand.New(rand.NewSource(int64(splitmix64(&seed)))), and Stream must keep
// reproducing that stream call by call.

// parity drives a Stream and its math/rand reference side by side.
type parity struct {
	t    testing.TB
	s    *Stream
	r    *rand.Rand
	step int
}

func newParity(t testing.TB, seed uint64) *parity {
	derived := seed
	return &parity{
		t: t,
		s: NewStream(seed),
		r: rand.New(rand.NewSource(int64(splitmix64(&derived)))),
	}
}

// check fails on a value mismatch, then draws one Int63 from both sides
// to prove the generators are still aligned after the call.
func (p *parity) check(call string, got, want any) {
	p.t.Helper()
	p.step++
	if !equalDraw(got, want) {
		p.t.Fatalf("step %d %s = %v, math/rand gives %v", p.step, call, got, want)
	}
	if a, b := p.s.int63(), p.r.Int63(); a != b {
		p.t.Fatalf("step %d: streams misaligned after %s: %d vs %d", p.step, call, a, b)
	}
}

func equalDraw(got, want any) bool {
	switch g := got.(type) {
	case []int:
		return slices.Equal(g, want.([]int))
	case float64:
		// Bit equality: NaN never arises, and -0 vs +0 would be a real
		// divergence.
		return math.Float64bits(g) == math.Float64bits(want.(float64))
	}
	return got == want
}

// prefix makes m draws, cycling through Float64, IntN and Exp, and
// compares each value without the extra alignment draw check makes, so
// exactly m generator draws are consumed.
func (p *parity) prefix(m int) {
	p.t.Helper()
	for i := 0; i < m; i++ {
		var got, want any
		switch i % 3 {
		case 0:
			got, want = p.s.Float64(), p.r.Float64()
		case 1:
			// A power of two: Int31n takes exactly one draw.
			got, want = p.s.IntN(1<<10), p.r.Intn(1<<10)
		case 2:
			got, want = p.s.Exp(2), -2*math.Log(1-p.r.Float64())
		}
		if !equalDraw(got, want) {
			p.t.Fatalf("prefix draw %d = %v, math/rand gives %v", i, got, want)
		}
	}
}

func (p *parity) float64() {
	p.check("Float64()", p.s.Float64(), p.r.Float64())
}

func (p *parity) exp(mean float64) {
	p.check(fmt.Sprintf("Exp(%v)", mean), p.s.Exp(mean), -mean*math.Log(1-p.r.Float64()))
}

func (p *parity) uniform(lo, hi float64) {
	p.check(fmt.Sprintf("Uniform(%v, %v)", lo, hi), p.s.Uniform(lo, hi), lo+(hi-lo)*p.r.Float64())
}

// logUniform's reference exponentiates with rng's own exp, which
// LogUniform uses in place of math.Exp (see exp.go); the draw it
// exponentiates is math/rand's.
func (p *parity) logUniform(lo, hi float64) {
	llo, lhi := math.Log(lo), math.Log(hi)
	want := exp(llo + (lhi-llo)*p.r.Float64())
	p.check(fmt.Sprintf("LogUniform(%v, %v)", lo, hi), p.s.LogUniform(lo, hi), want)
}

func (p *parity) intN(n int) {
	p.check(fmt.Sprintf("IntN(%d)", n), p.s.IntN(n), p.r.Intn(n))
}

func (p *parity) intRange(lo, hi int) {
	p.check(fmt.Sprintf("IntRange(%d, %d)", lo, hi), p.s.IntRange(lo, hi), lo+p.r.Intn(hi-lo+1))
}

func (p *parity) perm(n int) {
	p.check(fmt.Sprintf("Perm(%d)", n), p.s.Perm(n), p.r.Perm(n))
}

func (p *parity) choose(n, k int) {
	p.check(fmt.Sprintf("Choose(%d, %d)", n, k), p.s.Choose(n, k), p.r.Perm(n)[:k])
}

// seedDeriving returns the NewStream seed whose SplitMix64-derived
// math/rand seed is target, by inverting the SplitMix64 step (its
// finaliser is a bijection on 64-bit words).
func seedDeriving(target int64) uint64 {
	z := unxorshift(uint64(target), 31)
	z *= mulInverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= mulInverse(0xbf58476d1ce4e5b9)
	z = unxorshift(z, 30)
	return z - 0x9e3779b97f4a7c15
}

// unxorshift inverts y = x ^ x>>r.
func unxorshift(y uint64, r uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += r {
		x = y ^ x>>r
	}
	return x
}

// mulInverse returns the inverse of an odd c modulo 2⁶⁴ (Newton's
// iteration doubles the correct low bits each round).
func mulInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// paritySeeds covers ordinary seeds plus the edges of math/rand's seeding:
// derived seeds that are 0 mod 2³¹−1 (replaced by 89482311), negative
// after the int64 cast, and the extremes of int64.
func paritySeeds(t testing.TB) []uint64 {
	seeds := []uint64{0, 1, 2, 42, 99, 1 << 63, math.MaxUint64}
	for _, target := range []int64{
		0, int32max, -int32max, 7 * int32max, -5 * int32max,
		math.MaxInt64 - math.MaxInt64%int32max,
		-1, -2, int32max - 1, int32max + 1, -int32max - 1,
		math.MinInt64, math.MaxInt64,
	} {
		s := seedDeriving(target)
		if d := s; int64(splitmix64(&d)) != target {
			t.Fatalf("seedDeriving(%d) = %d does not derive the target", target, s)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range paritySeeds(t) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			p := newParity(t, seed)
			for i := 0; i < 50; i++ {
				p.float64()
				p.exp(0.25 + float64(i))
				p.uniform(-3, 7.5)
				p.logUniform(0.5, 2)
			}
			p.uniform(3, 3)

			// The Int63n sizes exceed a 32-bit int, which never takes
			// that path; they run where int is 64 bits.
			for _, n := range []int64{
				1, 2, 3, 4, 5, 6, 7, 100, 1 << 10, 1<<30 - 1, 1 << 30, 1<<30 + 1,
				int32max - 2, int32max - 1, int32max, // the Int31n path's top
				int32max + 1, 1 << 40, 1<<40 + 3, 3 << 50, math.MaxInt64, // Int63n
			} {
				for i := 0; i < 8 && n <= math.MaxInt; i++ {
					p.intN(int(n))
				}
			}
			p.intRange(2, 6)
			p.intRange(-10, -10)
			if span := int64(1) << 40; span <= math.MaxInt {
				p.intRange(int(-span), int(span))
			}

			for _, n := range []int{0, 1, 2, 10, 257} {
				p.perm(n)
			}

			// Interleaved population sizes: the fastmod table grows to
			// the largest n and serves every smaller one.
			for _, c := range [][2]int{
				{0, 0}, {1, 0}, {1, 1}, {6, 4}, {5000, 4}, {6, 6}, {5000, 0},
				{5000, 5000}, {37, 1}, {10000, 4}, {4096, 4096}, {5000, 4},
				{10000, 10000}, {2, 1}, {3, 2},
			} {
				p.choose(c[0], c[1])
			}
		})
	}
}

// TestStreamYoungBoundary crosses the point where a young stream, which
// computes its draws from its seed, builds its generator state: after
// 273 draws, or at its first Choose. Every prefix must leave the stream
// exactly where math/rand's would be.
func TestStreamYoungBoundary(t *testing.T) {
	for _, seed := range []uint64{1, 42, seedDeriving(0), seedDeriving(-1)} {
		for _, m := range []int{0, 1, 272, 273, 274, 334, 607, 1000} {
			t.Run(fmt.Sprintf("%d/%d", seed, m), func(t *testing.T) {
				p := newParity(t, seed)
				p.prefix(m)
				if young := p.s.vec == nil; young != (m <= rngTap) {
					t.Fatalf("young = %v after %d draws", young, m)
				}
				// At m = 0, Choose is the fresh stream's first call.
				p.choose(5000, 4)
				p.perm(7)
				p.choose(6, 6)
				for i := 0; i < 10; i++ {
					p.float64()
				}
			})
		}
	}
}

func FuzzStreamParity(f *testing.F) {
	f.Add(uint64(1), 5000, 4)
	f.Add(uint64(0), 0, 0)
	f.Add(seedDeriving(0), 7, 7)
	n31 := int64(1) << 31 // wraps negative, to a skipped draw, in a 32-bit int
	f.Add(seedDeriving(-3*int32max), int(n31), 1)
	f.Add(uint64(273)<<53, 5000, 4) // Choose right after the last young draw
	f.Fuzz(func(t *testing.T, seed uint64, n, k int) {
		p := newParity(t, seed)
		// Up to 699 draws first, so the first Choose meets young and
		// materialised streams alike.
		p.prefix(int(seed>>53) % 700)
		// n drives the integer draws directly; the population size for
		// Choose and Perm is folded into [0, 10000] to bound the work.
		if n > 0 {
			p.intN(n)
			p.intRange(-n/2, n/2)
		}
		pop := n % 10001
		if pop < 0 {
			pop = -pop
		}
		pick := k % (pop + 1)
		if pick < 0 {
			pick = -pick
		}
		p.choose(pop, pick)
		p.float64()
		p.exp(1 + float64(k&0xff))
		p.choose(pop/2, pick/2) // a smaller n reuses the table
		p.uniform(0, float64(pop))
		p.logUniform(1, 1+float64(pick))
		p.perm(pick % 64)
		p.choose(pop, pick)
	})
}

// schrage is math/rand's seeding step, 48271·x mod (2³¹−1).
func schrage(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	hi, lo := x/q, x%q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

func TestLehmerStepMatchesSchrage(t *testing.T) {
	check := func(x uint64) {
		want := uint64(schrage(int32(x)))
		if got := lehmerStep(x); got != want {
			t.Fatalf("lehmerStep(%d) = %d, Schrage gives %d", x, got, want)
		}
		if got := lehmerMul(x, lehmerA); got != want {
			t.Fatalf("lehmerMul(%d, 48271) = %d, Schrage gives %d", x, got, want)
		}
	}
	for x := uint64(1); x < 1<<16; x++ {
		check(x)
		check(int32max - x)
	}
	// A prime stride sweeps the rest of [1, 2³¹−2] in ~17M steps.
	for x := uint64(1 << 16); x < int32max-1; x += 127 {
		check(x)
	}
}

func TestLehmerPowers(t *testing.T) {
	starts := []int32{1, 2, 89482311, int32max - 1}
	for x := int32(12345); x < int32max-1<<22; x += 1<<22 + 7 {
		starts = append(starts, x)
	}
	type jump struct {
		steps int
		mul   uint64
	}
	cases := []jump{{3, lehmerA3}, {21, lehmerA21}}
	// lehmerJump[i] takes word i's seeding value straight from the seed.
	for _, i := range []int{0, 1, 2, 60, 273, 333, 334, rngLen - 1} {
		cases = append(cases, jump{21 + 3*i, lehmerJump[i]})
	}
	for _, c := range cases {
		for _, x := range starts {
			want := x
			for i := 0; i < c.steps; i++ {
				want = schrage(want)
			}
			if got := lehmerMul(uint64(x), c.mul); got != uint64(want) {
				t.Errorf("%d-step jump from %d = %d, stepping gives %d", c.steps, x, got, want)
			}
		}
	}
}

func TestFastmodMatchesRemainder(t *testing.T) {
	s := NewStream(3)
	divisors := []uint64{1, 2, 3, 7, 641, 5000, 6700417, 1<<31 - 1, 1 << 31}
	for i := 0; i < 200; i++ {
		divisors = append(divisors, uint64(s.IntN(int32max))+1)
	}
	for _, d := range divisors {
		mul := math.MaxUint64/d + 1
		for _, a := range []uint64{0, 1, d - 1, d, d + 1, 1 << 31, 1<<32 - 1} {
			if got := fastmod(a, mul, d); got != a%d {
				t.Fatalf("fastmod(%d, d=%d) = %d, want %d", a, d, got, a%d)
			}
		}
		for i := 0; i < 1000; i++ {
			a := uint64(s.int63()) >> 31
			if got := fastmod(a, mul, d); got != a%d {
				t.Fatalf("fastmod(%d, d=%d) = %d, want %d", a, d, got, a%d)
			}
		}
	}
}

// TestChooseRejections checks Choose's handling of draws that Int31n
// rejects. Natural streams almost never produce one for small divisors
// (the chance is d/2³¹), so the generator state is forced: when every
// word is w, the first 273 draws are all 2w. With w = 2⁶²−1 their Int31
// is 2³¹−1, which every divisor that is not a power of two rejects; with
// w = (2³⁰−1)·2³² it is 2³¹−2, which d = 3 rejects but the cheap
// 2³¹−d pre-check alone would accept. Perm's draws go through math/rand's
// Int31n logic verbatim, so Perm(n)[:k] on a twin stream is the
// reference.
func TestChooseRejections(t *testing.T) {
	for _, c := range []struct {
		word  int64
		mixed bool // replace about half the words with random ones
	}{{1<<62 - 1, false}, {1<<62 - 1, true}, {(1<<30 - 1) << 32, false}} {
		a, b := NewStream(5), NewStream(5)
		a.materialise()
		b.materialise()
		mix := NewStream(6)
		for i := range a.vec {
			w := c.word
			if c.mixed && mix.IntN(2) == 0 {
				w = mix.int63()
			}
			a.vec[i], b.vec[i] = w, w
		}
		for _, nk := range [][2]int{{3, 1}, {7, 7}, {300, 2}, {5000, 4}, {700, 700}, {6, 0}} {
			n, k := nk[0], nk[1]
			got := a.Choose(n, k)
			want := b.Perm(n)[:k]
			if !slices.Equal(got, want) {
				t.Fatalf("word %#x mixed=%v: Choose(%d, %d) = %v, Perm prefix %v", c.word, c.mixed, n, k, got, want)
			}
			if x, y := a.int63(), b.int63(); x != y {
				t.Fatalf("word %#x mixed=%v: misaligned after Choose(%d, %d)", c.word, c.mixed, n, k)
			}
		}
	}
}

// TestFloat64RetriesOnRoundUp forces an Int63 of 2⁶³−1, whose quotient
// rounds to 1.0, and checks that Float64 draws again as math/rand does,
// both called directly and inside Uniform and Exp, whose inlined draw
// falls back to Float64 for the redraw.
func TestFloat64RetriesOnRoundUp(t *testing.T) {
	for _, c := range []struct {
		call string
		draw func(*Stream) float64
		want float64 // the value of the retry draw 0.5
	}{
		{"Float64", (*Stream).Float64, 0.5},
		{"Uniform(0, 1)", func(s *Stream) float64 { return s.Uniform(0, 1) }, 0.5},
		{"Exp(1)", func(s *Stream) float64 { return s.Exp(1) }, -math.Log(1 - 0.5)},
	} {
		s := NewStream(1)
		s.materialise()
		// A fresh stream's next two draws add vec[333]+vec[606], then
		// vec[332]+vec[605].
		s.vec[333], s.vec[606] = rngMask, 0
		s.vec[332], s.vec[605] = 1<<62, 0
		if got := c.draw(s); got != c.want {
			t.Fatalf("%s = %v, want %v from the retry draw", c.call, got, c.want)
		}
		if s.tap != rngLen-2 {
			t.Fatalf("%s consumed %d draws, want 2", c.call, rngLen-s.tap)
		}
	}
}
