package workload

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

func TestBaselineMatchesTable1(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	if s.K != 6 || s.Load != 0.5 || s.FracLocal != 0.75 {
		t.Errorf("baseline core = k%d load%v frac%v", s.K, s.Load, s.FracLocal)
	}
	if s.MeanLocalExec != 1 || s.MeanSubtaskExec != 1 {
		t.Error("baseline mean execs should be 1")
	}
	if s.SlackMin != 1.25 || s.SlackMax != 5 {
		t.Errorf("baseline slack = [%v, %v]", s.SlackMin, s.SlackMax)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("baseline invalid: %v", err)
	}
}

func TestRateArithmetic(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	// load = (n λg/μs + k λl/μl)/k with all μ = 1:
	// λl = load*frac = 0.375; λg = load*(1-frac)*k/n = 0.5*0.25*6/4 = 0.1875.
	if got := s.LocalRate(); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("LocalRate = %v, want 0.375", got)
	}
	if got := s.GlobalRate(); math.Abs(got-0.1875) > 1e-12 {
		t.Errorf("GlobalRate = %v, want 0.1875", got)
	}
	// Reconstruct the load from the rates.
	n := 4.0
	load := (n*s.GlobalRate() + float64(s.K)*s.LocalRate()) / float64(s.K)
	if math.Abs(load-0.5) > 1e-12 {
		t.Errorf("reconstructed load = %v, want 0.5", load)
	}
}

func TestRateEdgeCases(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	s.FracLocal = 1
	if s.GlobalRate() != 0 {
		t.Error("frac_local=1 should disable globals")
	}
	s.FracLocal = 0
	if s.LocalRate() != 0 {
		t.Error("frac_local=0 should disable locals")
	}
	s2 := Baseline(nil)
	s2.FracLocal = 1
	if err := s2.Validate(); err != nil {
		t.Errorf("factory may be nil when frac_local == 1: %v", err)
	}
	if s2.GlobalRate() != 0 {
		t.Error("nil factory should yield zero global rate")
	}
}

func TestValidateRejects(t *testing.T) {
	base := Baseline(FixedParallel{N: 4})
	mutations := []func(*Spec){
		func(s *Spec) { s.K = 0 },
		func(s *Spec) { s.Load = -0.1 },
		func(s *Spec) { s.FracLocal = 1.5 },
		func(s *Spec) { s.FracLocal = -0.5 },
		func(s *Spec) { s.MeanLocalExec = 0 },
		func(s *Spec) { s.MeanSubtaskExec = -1 },
		func(s *Spec) { s.SlackMin = -1 },
		func(s *Spec) { s.SlackMax = 0.5 },
		func(s *Spec) { s.GlobalSlackMin = 5; s.GlobalSlackMax = 2 },
		func(s *Spec) { s.Load = math.NaN() },
		func(s *Spec) { s.Load = math.Inf(1) },
		func(s *Spec) { s.FracLocal = math.NaN() },
		func(s *Spec) { s.MeanLocalExec = math.NaN() },
		func(s *Spec) { s.MeanLocalExec = math.Inf(1) },
		func(s *Spec) { s.MeanSubtaskExec = math.NaN() },
		func(s *Spec) { s.MeanSubtaskExec = math.Inf(1) },
		func(s *Spec) { s.SlackMin = math.NaN() },
		func(s *Spec) { s.SlackMax = math.NaN() },
		func(s *Spec) { s.SlackMax = math.Inf(1) },
		func(s *Spec) { s.GlobalSlackMax = math.NaN() },
		func(s *Spec) { s.GlobalSlackMin = math.Inf(-1) },
		func(s *Spec) { s.GlobalSlackMax = math.Inf(1) },
		func(s *Spec) { s.Factory = nil },
		func(s *Spec) { s.Factory = FixedParallel{N: 9} }, // 9 > k
	}
	for i, mut := range mutations {
		s := base
		mut(&s)
		if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("mutation %d: err = %v, want ErrBadSpec", i, err)
		}
	}
}

func TestNewLocalDeadline(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	stream := rng.NewStream(1)
	for i := 0; i < 1000; i++ {
		l := s.NewLocal(stream, nil, 3, 100)
		if l.Node != 3 || !l.IsSimple() {
			t.Fatalf("local = %+v", l)
		}
		slack := l.RealDeadline.Sub(simtime.Time(100)) - l.Exec
		if slack < simtime.Duration(s.SlackMin)-1e-9 || slack > simtime.Duration(s.SlackMax)+1e-9 {
			t.Fatalf("slack %v outside [%v, %v]", slack, s.SlackMin, s.SlackMax)
		}
	}
}

func TestNewGlobalDeadlineEq2(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	stream := rng.NewStream(2)
	for i := 0; i < 1000; i++ {
		g, err := s.NewGlobal(stream, nil, 50)
		if err != nil {
			t.Fatal(err)
		}
		// Eq. 2: dl = ar + max_i ex(Ti) + slack with slack in [1.25, 5].
		slack := g.RealDeadline.Sub(simtime.Time(50)) - g.CriticalPath()
		if slack < 1.25-1e-9 || slack > 5+1e-9 {
			t.Fatalf("global slack %v outside [1.25, 5]", slack)
		}
	}
}

func TestSubtaskSlackAtLeastGroupSlack(t *testing.T) {
	// Paper Eq. 3: each subtask's slack (vs the global deadline) is at
	// least the drawn group slack, since dl includes the *longest* subtask.
	s := Baseline(FixedParallel{N: 4})
	stream := rng.NewStream(3)
	for i := 0; i < 500; i++ {
		g, err := s.NewGlobal(stream, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		groupSlack := g.RealDeadline.Sub(0) - g.CriticalPath()
		for _, leaf := range g.Leaves() {
			leafSlack := g.RealDeadline.Sub(0) - leaf.Exec
			if leafSlack < groupSlack-1e-9 {
				t.Fatalf("leaf slack %v < group slack %v", leafSlack, groupSlack)
			}
		}
	}
}

func TestGlobalSlackOverride(t *testing.T) {
	s := Baseline(SerialParallel{Stages: 5, Fanout: 4})
	s.GlobalSlackMin, s.GlobalSlackMax = 6.25, 25
	stream := rng.NewStream(4)
	for i := 0; i < 500; i++ {
		g, err := s.NewGlobal(stream, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		slack := g.RealDeadline.Sub(0) - g.CriticalPath()
		if slack < 6.25-1e-9 || slack > 25+1e-9 {
			t.Fatalf("slack %v outside [6.25, 25]", slack)
		}
	}
	// Locals still use the local range.
	l := s.NewLocal(stream, nil, 0, 0)
	slack := l.RealDeadline.Sub(0) - l.Exec
	if slack > 5+1e-9 {
		t.Errorf("local slack %v should use the local range", slack)
	}
}

// unitExp is the exponential service law of mean 1 the factory tests
// draw from.
var unitExp = Service{Dist: Exponential{}, Mean: 1}

func TestFixedParallelShape(t *testing.T) {
	f := FixedParallel{N: 4}
	stream := rng.NewStream(5)
	for i := 0; i < 200; i++ {
		g, err := f.New(stream, nil, 6, unitExp)
		if err != nil {
			t.Fatal(err)
		}
		if g.Kind != task.KindParallel || len(g.Children) != 4 {
			t.Fatalf("shape = %v/%d", g.Kind, len(g.Children))
		}
		seen := map[int]bool{}
		for _, c := range g.Children {
			if !c.IsSimple() {
				t.Fatal("children must be simple")
			}
			if seen[c.Node] {
				t.Fatalf("duplicate node %d in parallel group", c.Node)
			}
			seen[c.Node] = true
			if c.Node < 0 || c.Node >= 6 {
				t.Fatalf("node %d out of range", c.Node)
			}
		}
	}
}

func TestFixedParallelExpectedWork(t *testing.T) {
	f := FixedParallel{N: 4}
	if got := f.ExpectedWork(2.0); got != 8 {
		t.Errorf("ExpectedWork = %v, want 8", got)
	}
	stream := rng.NewStream(6)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g, err := f.New(stream, nil, 6, unitExp)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(g.TotalWork())
	}
	if got := sum / n; math.Abs(got-4) > 0.1 {
		t.Errorf("empirical work %v, want ~4", got)
	}
}

func TestUniformParallelClasses(t *testing.T) {
	f := UniformParallel{Min: 2, Max: 6}
	if got := f.ExpectedWork(1.0); got != 4 {
		t.Errorf("ExpectedWork = %v, want 4", got)
	}
	stream := rng.NewStream(7)
	counts := map[int]int{}
	for i := 0; i < 5000; i++ {
		g, err := f.New(stream, nil, 6, unitExp)
		if err != nil {
			t.Fatal(err)
		}
		counts[g.CountSimple()]++
	}
	for n := 2; n <= 6; n++ {
		frac := float64(counts[n]) / 5000
		if math.Abs(frac-0.2) > 0.03 {
			t.Errorf("class n=%d frequency %v, want ~0.2", n, frac)
		}
	}
}

func TestSerialParallelShape(t *testing.T) {
	f := SerialParallel{Stages: 5, Fanout: 4}
	if got := f.ExpectedWork(1.0); got != 11 {
		t.Errorf("ExpectedWork = %v, want 11 (3 simple + 2x4 parallel)", got)
	}
	stream := rng.NewStream(8)
	g, err := f.New(stream, nil, 6, unitExp)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != task.KindSerial || len(g.Children) != 5 {
		t.Fatalf("shape = %v/%d", g.Kind, len(g.Children))
	}
	for i, stage := range g.Children {
		wantParallel := i%2 == 1
		if wantParallel && (stage.Kind != task.KindParallel || len(stage.Children) != 4) {
			t.Errorf("stage %d = %v/%d, want parallel/4", i, stage.Kind, len(stage.Children))
		}
		if !wantParallel && !stage.IsSimple() {
			t.Errorf("stage %d = %v, want simple", i, stage.Kind)
		}
	}
	if g.CountSimple() != 11 {
		t.Errorf("CountSimple = %d, want 11", g.CountSimple())
	}
}

func TestFactoryValidation(t *testing.T) {
	cases := []struct {
		f Factory
		k int
	}{
		{FixedParallel{N: 0}, 6},
		{FixedParallel{N: 7}, 6},
		{UniformParallel{Min: 0, Max: 3}, 6},
		{UniformParallel{Min: 4, Max: 2}, 6},
		{UniformParallel{Min: 2, Max: 9}, 6},
		{SerialParallel{Stages: 0, Fanout: 4}, 6},
		{SerialParallel{Stages: 5, Fanout: 0}, 6},
		{SerialParallel{Stages: 5, Fanout: 8}, 6},
	}
	for i, c := range cases {
		if err := c.f.Validate(c.k); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d (%s): err = %v, want ErrBadSpec", i, c.f.Name(), err)
		}
		if _, err := c.f.New(rng.NewStream(1), nil, c.k, unitExp); err == nil {
			t.Errorf("case %d: New succeeded on invalid factory", i)
		}
	}
}

func TestEstimators(t *testing.T) {
	stream := rng.NewStream(9)
	if got := (Exact{}).Pex(3, 1, stream); got != 3 {
		t.Errorf("Exact = %v, want 3", got)
	}
	if got := (Mean{}).Pex(3, 1.5, stream); got != 1.5 {
		t.Errorf("Mean = %v, want 1.5", got)
	}
	n := Noisy{Factor: 2}
	for i := 0; i < 1000; i++ {
		got := n.Pex(4, 1, stream)
		if got < 2-1e-9 || got > 8+1e-9 {
			t.Fatalf("Noisy x2 of 4 = %v, want within [2, 8]", got)
		}
	}
	// Factor below 1 is normalised to its reciprocal.
	inv := Noisy{Factor: 0.5}
	for i := 0; i < 100; i++ {
		got := inv.Pex(4, 1, stream)
		if got < 2-1e-9 || got > 8+1e-9 {
			t.Fatalf("Noisy x0.5 of 4 = %v, want within [2, 8]", got)
		}
	}
	if got := (Noisy{Factor: 0}).Pex(4, 1, stream); got != 4 {
		t.Errorf("Noisy factor 0 should degrade to exact, got %v", got)
	}
	if got := n.Pex(0, 1, stream); got != 0 {
		t.Errorf("Noisy of zero exec = %v, want 0", got)
	}
}

func TestEstimatorAppliedToLeaves(t *testing.T) {
	s := Baseline(FixedParallel{N: 4})
	s.Estimator = Mean{}
	stream := rng.NewStream(10)
	g, err := s.NewGlobal(stream, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range g.Leaves() {
		if leaf.Pex != 1 {
			t.Errorf("leaf pex = %v, want the mean 1", leaf.Pex)
		}
	}
}

func TestFactoryNames(t *testing.T) {
	if (FixedParallel{N: 4}).Name() != "parallel-4" {
		t.Error("FixedParallel name")
	}
	if (UniformParallel{Min: 2, Max: 6}).Name() != "parallel-u2-6" {
		t.Error("UniformParallel name")
	}
	if (SerialParallel{Stages: 5, Fanout: 4}).Name() != "serial5-fan4" {
		t.Error("SerialParallel name")
	}
}

// TestSpecDrawsItsCurrentLaw: a Spec that has drawn a global task draws
// the next one from its subtask law as it is then, and so does a copy of
// it. A sampler cached on the first draw once kept the first law: a
// deterministic FixedParallel{N: 4} drew work 4 after the mean became 5.
func TestSpecDrawsItsCurrentLaw(t *testing.T) {
	work := func(s *Spec) simtime.Duration {
		t.Helper()
		g, err := s.NewGlobal(rng.NewStream(7), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g.TotalWork()
	}
	spec := Baseline(FixedParallel{N: 4})
	spec.SubtaskService = Deterministic{}
	if got := work(&spec); got != 4 {
		t.Fatalf("first draw: work %v, want 4", got)
	}
	copied := spec
	for _, c := range []struct {
		name string
		s    *Spec
	}{{"same spec", &spec}, {"copy", &copied}} {
		c.s.MeanSubtaskExec = 5
		if got := work(c.s); got != 20 {
			t.Errorf("%s, mean 5: work %v, want 20", c.name, got)
		}
		c.s.SubtaskService = Exponential{}
		want := Baseline(FixedParallel{N: 4})
		want.MeanSubtaskExec = 5
		if got, w := work(c.s), work(&want); got != w {
			t.Errorf("%s, exponential: work %v, want %v as a new Spec draws", c.name, got, w)
		}
	}
}
