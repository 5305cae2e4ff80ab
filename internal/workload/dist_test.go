package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// moments estimates the mean and SCV of dist empirically.
func moments(t *testing.T, d Dist, mean float64, n int) (m, scv float64) {
	t.Helper()
	s := rng.NewStream(7)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(mean, s)
		if x < 0 {
			t.Fatalf("%s drew negative %v", d.Name(), x)
		}
		sum += x
		sumSq += x * x
	}
	m = sum / float64(n)
	variance := sumSq/float64(n) - m*m
	return m, variance / (m * m)
}

func TestDistMoments(t *testing.T) {
	const n = 300000
	cases := []struct {
		d       Dist
		wantSCV float64
		tol     float64
	}{
		{Exponential{}, 1, 0.03},
		{Deterministic{}, 0, 1e-12},
		{ErlangK{K: 4}, 0.25, 0.02},
		{ErlangK{K: 1}, 1, 0.03},
		{HyperExp{CV2: 4}, 4, 0.25},
		{HyperExp{CV2: 9}, 9, 0.8},
	}
	for _, c := range cases {
		t.Run(c.d.Name(), func(t *testing.T) {
			if got := c.d.SCV(); math.Abs(got-c.wantSCV) > 1e-12 {
				t.Errorf("declared SCV = %v, want %v", got, c.wantSCV)
			}
			m, scv := moments(t, c.d, 2.0, n)
			if math.Abs(m-2.0) > 0.05 {
				t.Errorf("empirical mean = %v, want ~2", m)
			}
			if math.Abs(scv-c.wantSCV) > c.tol {
				t.Errorf("empirical SCV = %v, want ~%v", scv, c.wantSCV)
			}
		})
	}
}

func TestDistDegenerateParams(t *testing.T) {
	s := rng.NewStream(1)
	// ErlangK with K < 1 degrades to exponential.
	if (ErlangK{K: 0}).SCV() != 1 {
		t.Error("ErlangK{0}.SCV() should be 1")
	}
	if v := (ErlangK{K: 0}).Sample(1, s); v < 0 {
		t.Error("ErlangK{0} sample negative")
	}
	// HyperExp with CV2 <= 1 degrades to exponential.
	if (HyperExp{CV2: 0.5}).SCV() != 1 {
		t.Error("HyperExp{0.5}.SCV() should be 1")
	}
	m, scv := moments(t, HyperExp{CV2: 0.5}, 1.0, 100000)
	if math.Abs(m-1) > 0.03 || math.Abs(scv-1) > 0.1 {
		t.Errorf("degenerate hyper: mean %v scv %v, want ~1/~1", m, scv)
	}
}

func TestSpecUsesDistributions(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	s.LocalService = Deterministic{}
	s.SubtaskService = Deterministic{}
	stream := rng.NewStream(3)
	l := s.NewLocal(stream, nil, 0, 0)
	if l.Exec != 1 {
		t.Errorf("deterministic local exec = %v, want exactly 1", l.Exec)
	}
	g, err := s.NewGlobal(stream, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range g.Leaves() {
		if leaf.Exec != 1 {
			t.Errorf("deterministic subtask exec = %v, want 1", leaf.Exec)
		}
	}
}

func TestDistNames(t *testing.T) {
	for d, want := range map[Dist]string{
		Exponential{}:    "exp",
		Deterministic{}:  "det",
		ErlangK{K: 4}:    "erlang4",
		HyperExp{CV2: 4}: "hyper4",
	} {
		if got := d.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
