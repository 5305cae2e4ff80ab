package portable

import (
	"math"
	"testing"
)

// TestExpPortable checks Exp: its special cases, agreement with math.Exp
// to a relative 1e-15 (amd64's assembly is off by a few ulps in places),
// and a digest of its exact bits over [-700, 700] that every GOARCH must
// reproduce.
func TestExpPortable(t *testing.T) {
	special := []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0}, {800, math.Inf(1)}, {-800, 0}, {0, 1}, {1e-300, 1},
	}
	for _, c := range special {
		if got := Exp(c.x); got != c.want {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v", got)
	}
	var digest uint64
	for i := -70000; i <= 70000; i++ {
		x := float64(i)*0.01 + 0.001234
		got, want := Exp(x), math.Exp(x)
		if math.Abs(got/want-1) > 1e-15 {
			t.Fatalf("Exp(%v) = %v, math.Exp %v", x, got, want)
		}
		digest = digest*1099511628211 ^ math.Float64bits(got)
	}
	if want := uint64(0xa66f6d47e231c0b2); digest != want {
		t.Errorf("Exp digest = %#x, want %#x", digest, want)
	}
}
