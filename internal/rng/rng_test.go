package rng

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d diverged: %v vs %v", i, av, bv)
		}
	}
}

func TestSplitterIndependentChildren(t *testing.T) {
	sp := NewSplitter(7)
	a := sp.Stream()
	b := sp.Stream()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling streams coincide on %d of 100 draws", same)
	}
}

func TestSplitterDeterminism(t *testing.T) {
	// Same master seed: identical child seeds and identical child streams.
	a, b := NewSplitter(123), NewSplitter(123)
	for i := 0; i < 5; i++ {
		if as, bs := a.Seed(), b.Seed(); as != bs {
			t.Fatalf("child seed %d diverged: %d vs %d", i, as, bs)
		}
		ac, bc := a.Stream(), b.Stream()
		for j := 0; j < 20; j++ {
			if av, bv := ac.Float64(), bc.Float64(); av != bv {
				t.Fatalf("child stream %d draw %d diverged: %v vs %v", i, j, av, bv)
			}
		}
	}

	// Different master seeds: child seeds and draws diverge.
	c, d := NewSplitter(99), NewSplitter(100)
	for i := 0; i < 5; i++ {
		if cs, ds := c.Seed(), d.Seed(); cs == ds {
			t.Fatalf("child seed %d coincides across master seeds: %d", i, cs)
		}
	}
	cc, dc := c.Stream(), d.Stream()
	same := 0
	for j := 0; j < 100; j++ {
		if cc.Float64() == dc.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams of different master seeds coincide on %d of 100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Errorf("empirical mean %v, want ~2.0", mean)
	}
}

func TestExpPositive(t *testing.T) {
	s := NewStream(2)
	for i := 0; i < 10000; i++ {
		if v := s.Exp(1); v < 0 {
			t.Fatalf("exponential draw %v < 0", v)
		}
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	NewStream(1).Exp(0)
}

func TestUniformBounds(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(1.25, 5.0)
		if v < 1.25 || v >= 5.0 {
			t.Fatalf("uniform draw %v outside [1.25, 5)", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	s := NewStream(4)
	if v := s.Uniform(3, 3); v != 3 {
		t.Errorf("degenerate uniform = %v, want 3", v)
	}
}

func TestUniformMean(t *testing.T) {
	s := NewStream(5)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Uniform(1.25, 5.0)
	}
	want := (1.25 + 5.0) / 2
	if got := sum / n; math.Abs(got-want) > 0.03 {
		t.Errorf("uniform mean %v, want ~%v", got, want)
	}
}

func TestLogUniformBounds(t *testing.T) {
	s := NewStream(6)
	for i := 0; i < 10000; i++ {
		v := s.LogUniform(0.5, 2.0)
		if v < 0.5 || v > 2.0 {
			t.Fatalf("log-uniform draw %v outside [0.5, 2]", v)
		}
	}
}

func TestLogUniformSymmetry(t *testing.T) {
	// log-uniform on [1/2, 2] should be above and below 1 about equally.
	s := NewStream(7)
	above := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.LogUniform(0.5, 2.0) > 1 {
			above++
		}
	}
	frac := float64(above) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction above 1 = %v, want ~0.5", frac)
	}
}

// TestExpPortable checks rng's exponential: its special cases, agreement
// with math.Exp to a relative 1e-15 (amd64's assembly is off by a few
// ulps in places), and a digest of its exact bits over [-700, 700] that
// every GOARCH must reproduce.
func TestExpPortable(t *testing.T) {
	special := []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0}, {800, math.Inf(1)}, {-800, 0}, {0, 1}, {1e-300, 1},
	}
	for _, c := range special {
		if got := exp(c.x); got != c.want {
			t.Errorf("exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("exp(NaN) = %v", got)
	}
	var digest uint64
	for i := -70000; i <= 70000; i++ {
		x := float64(i)*0.01 + 0.001234
		got, want := exp(x), math.Exp(x)
		if math.Abs(got/want-1) > 1e-15 {
			t.Fatalf("exp(%v) = %v, math.Exp %v", x, got, want)
		}
		digest = digest*1099511628211 ^ math.Float64bits(got)
	}
	if want := uint64(0xa66f6d47e231c0b2); digest != want {
		t.Errorf("exp digest = %#x, want %#x", digest, want)
	}
}

func TestIntRange(t *testing.T) {
	s := NewStream(8)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := s.IntRange(2, 6)
		if v < 2 || v > 6 {
			t.Fatalf("IntRange draw %d outside [2,6]", v)
		}
		seen[v] = true
	}
	for v := 2; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestChooseDistinct(t *testing.T) {
	s := NewStream(9)
	f := func(seed uint8) bool {
		n := 6
		k := 1 + int(seed)%n
		picked := s.Choose(n, k)
		if len(picked) != k {
			return false
		}
		sorted := append([]int(nil), picked...)
		sort.Ints(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				return false
			}
		}
		for _, v := range picked {
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChoosePanicsWhenImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choose(2,3) did not panic")
		}
	}()
	NewStream(1).Choose(2, 3)
}

func TestChoosePanicsOnNegativeK(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "rng: ") {
			t.Errorf("Choose(2,-1) panic = %q, want an rng: message", msg)
		}
	}()
	NewStream(1).Choose(2, -1)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(13)
	p := s.Perm(10)
	sort.Ints(p)
	for i, v := range p {
		if i != v {
			t.Fatalf("Perm missing %d", i)
		}
	}
}
