// Cross-validation of the analytic oracle against the simulator: the
// analytic bounds must bracket every simulated response, for randomized
// DAG populations (idle-system sample-path bounds) and for every workload
// factory under the full stochastic model (lower bound only, enforced by
// the Oracle recorder).
package analysis_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// randomDagFactory draws a randomized parameterisation of one of the DAG
// factory families, cycling so every family appears.
func randomDagFactory(s *rng.Stream, trial, k int) workload.DagFactory {
	switch trial % 3 {
	case 0:
		return workload.LayeredDag{
			Layers:   s.IntRange(2, 5),
			MinWidth: 1,
			MaxWidth: s.IntRange(1, 4),
			EdgeProb: s.Float64(),
		}
	case 1:
		return workload.ForkJoinDag{
			Stages:    s.IntRange(1, 6),
			Fanout:    s.IntRange(1, 4),
			CrossProb: s.Float64() * 0.5,
		}
	default:
		branches := s.IntRange(1, 3)
		probs := make([]float64, branches)
		rem := 1.0
		for i := 0; i < branches-1; i++ {
			probs[i] = rem * s.Uniform(0.1, 0.9)
			rem -= probs[i]
		}
		probs[branches-1] = rem
		return workload.ConditionalDag{
			Stages:   s.IntRange(1, 6),
			Branches: branches,
			Width:    s.IntRange(1, 3),
			Probs:    probs,
		}
	}
}

// bracketStrategies are the strategy pairs the idle-system bracket runs
// under.
var bracketStrategies = []struct {
	ssp sda.SSP
	psp sda.PSP
}{
	{sda.SerialUD{}, sda.UD{}},
	{sda.EQF{}, sda.MustDiv(1)},
	{sda.EQS{}, sda.GF{}},
}

// checkIdleBracket submits d alone into an otherwise empty k-node system
// with the given deadline slack and checks that its response lies in
// [critical path, volume] and that the oracle, checking at least once,
// reports no violation.
func checkIdleBracket(t *testing.T, label string, d *task.Dag, k int, ssp sda.SSP, psp sda.PSP, slack simtime.Duration) {
	t.Helper()
	m := analysis.DagMetrics(d)
	eng := des.New()
	nodes := make([]*node.Node, k)
	for i := range nodes {
		nodes[i] = node.New(i, eng)
	}
	oracle := analysis.NewOracle()
	mgr := procmgr.New(eng, nodes, ssp, psp, procmgr.WithRecorder(oracle))

	root := d.Root()
	root.RealDeadline = simtime.Time(0).Add(m.Critical + slack)
	if err := mgr.SubmitDag(d); err != nil {
		t.Fatalf("%s: SubmitDag: %v", label, err)
	}
	eng.Run()

	if !root.Finished() {
		t.Fatalf("%s: DAG never finished", label)
	}
	resp := root.Finish.Sub(root.Arrival)
	const tol = 1e-9
	if float64(m.Critical)-float64(resp) > tol*(1+float64(m.Critical)) {
		t.Errorf("%s: response %v below critical path %v", label, resp, m.Critical)
	}
	if float64(resp)-float64(m.Volume) > tol*(1+float64(m.Volume)) {
		t.Errorf("%s: response %v above idle-system volume bound %v", label, resp, m.Volume)
	}
	if oracle.ViolationCount() != 0 {
		t.Errorf("%s: oracle violations: %v", label, oracle.Violations())
	}
	if oracle.Checks() == 0 {
		t.Errorf("%s: oracle performed no checks", label)
	}
}

// TestRandomDagsRespectBounds is the idle-system property test: >= 200
// randomized DAGs, each submitted alone into an otherwise empty system.
// On every sample path the response must be at least the critical path
// (no schedule can beat the longest chain) and, because the system runs
// nothing else and the manager is work-conserving, at most the volume
// (some vertex of the DAG is always in service until it finishes).
func TestRandomDagsRespectBounds(t *testing.T) {
	const k = 5
	const trials = 210
	stream := rng.NewStream(20260807)
	for trial := 0; trial < trials; trial++ {
		strat := bracketStrategies[trial%len(bracketStrategies)]
		f := randomDagFactory(stream, trial, k)
		if err := f.Validate(k); err != nil {
			t.Fatalf("trial %d: randomized factory invalid: %v", trial, err)
		}
		d, err := f.NewDag(stream, nil, k, workload.Service{Dist: workload.Exponential{}, Mean: 1})
		if err != nil {
			t.Fatalf("trial %d: NewDag: %v", trial, err)
		}
		slack := simtime.Duration(stream.Uniform(1.25, 5))
		checkIdleBracket(t, fmt.Sprintf("trial %d (%s)", trial, f.Name()), d, k, strat.ssp, strat.psp, slack)
	}
}

// maxBracketVertices and maxBracketNode bound the fuzzed DAGs, so one
// input stays a small simulation.
const (
	maxBracketVertices = 64
	maxBracketNode     = 63
	maxBracketVolume   = 1e9
)

// FuzzOracleBracket is the idle-system bracket on conditional DAGs from
// the fuzzer (Dinh et al.'s [len, vol] bounds for a DAG task on an idle
// platform): any conditional DAG in ParseCondDag's notation is realized
// with a fuzzed seed, submitted alone under a fuzzed strategy pair and
// deadline, and its response must lie between the realized DAG's critical
// path and its volume, with no oracle violation.
func FuzzOracleBracket(f *testing.F) {
	for i, seed := range []string{
		"a",
		"a b ; a>b",
		"s a b ; s>a:0.3 s>b:0.7",
		"s a b c d t ; s>a:0.5 s>b:0.5 a>c:0.25 a>d:0.75 b>t c>t d>t",
		"s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t",
		"s@0:1 a@1:2/3 b@1:4/1 c@2:0.5 t@0:1 ; s>a s>b s>c a>t b>t c>t",
		"a@0:0 b@0:0 ; a>b",
		"a@0:1 b@0:1 c@0:1 d@1:2 ; a>d b>d c>d",
	} {
		f.Add(seed, uint64(i+1), uint8(i), 2.5)
	}
	f.Fuzz(func(t *testing.T, input string, seed uint64, strat uint8, slack float64) {
		cd, err := task.ParseCondDag(input)
		if err != nil || cd.Dag().Len() > maxBracketVertices {
			return
		}
		k := 1
		var volume float64
		for _, n := range cd.Dag().Nodes() {
			k = max(k, n.Task.Node+1)
			volume += float64(n.Task.Exec)
		}
		if k > maxBracketNode+1 || !(volume <= maxBracketVolume) {
			return
		}
		if !(slack >= 0 && slack <= maxBracketVolume) {
			slack = 1
		}
		d, err := cd.Realize(rng.NewStream(seed), nil)
		if err != nil {
			t.Fatalf("%q: Realize: %v", input, err)
		}
		st := bracketStrategies[int(strat)%len(bracketStrategies)]
		checkIdleBracket(t, fmt.Sprintf("%q seed %d", input, seed), d, k, st.ssp, st.psp, simtime.Duration(slack))
	})
}

// TestSpecCondActivationConvergence draws conditional-DAG globals through
// the full workload spec (estimator, slack, deadline stamping) and checks
// the realized branch frequencies converge to the configured
// probabilities. Deterministic seed, CI-safe tolerance.
func TestSpecCondActivationConvergence(t *testing.T) {
	const n = 4000
	const tol = 0.025
	probs := []float64{0.2, 0.5, 0.3}
	spec := workload.Baseline(nil)
	spec.Factory = nil
	spec.DagFactory = workload.ConditionalDag{Stages: 3, Branches: 3, Width: 1, Probs: probs}
	spec.FracLocal = 0.5
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	stream := rng.NewSplitter(77).Stream()
	counts := make([]int, len(probs))
	for i := 0; i < n; i++ {
		d, err := spec.NewGlobalDag(stream, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range d.Nodes() {
			switch v.Task.Name {
			case "g1_0":
				counts[0]++
			case "g1_1":
				counts[1]++
			case "g1_2":
				counts[2]++
			}
		}
	}
	for g, want := range probs {
		freq := float64(counts[g]) / n
		if math.Abs(freq-want) > tol {
			t.Errorf("gate %d frequency = %v, want %v +/- %v", g, freq, want, tol)
		}
	}
}

// TestOracleCrossValidationAllFactories runs the full stochastic
// simulation for every workload factory family — trees and DAGs, with and
// without abortion — with the analytic oracle attached as a recorder and
// demands zero violations: across the whole applicable scenario space no
// simulated task may ever beat its schedule-independent response-time
// lower bound.
func TestOracleCrossValidationAllFactories(t *testing.T) {
	type cell struct {
		name    string
		factory workload.Factory
		dag     workload.DagFactory
		abort   sim.AbortMode
	}
	cells := []cell{
		{"parallel", workload.FixedParallel{N: 3}, nil, sim.AbortNone},
		{"uniform", workload.UniformParallel{Min: 2, Max: 4}, nil, sim.AbortNone},
		{"serial", workload.SerialParallel{Stages: 3, Fanout: 3}, nil, sim.AbortNone},
		{"parallel-pm-abort", workload.FixedParallel{N: 3}, nil, sim.AbortProcessManager},
		{"layered", nil, workload.LayeredDag{Layers: 3, MinWidth: 1, MaxWidth: 3, EdgeProb: 0.3}, sim.AbortNone},
		{"forkjoin", nil, workload.ForkJoinDag{Stages: 3, Fanout: 3, CrossProb: 0.3}, sim.AbortNone},
		{"cond", nil, workload.ConditionalDag{Stages: 3, Branches: 2, Width: 2, Probs: []float64{0.3, 0.7}}, sim.AbortNone},
		{"cond-local-abort", nil, workload.ConditionalDag{Stages: 5, Branches: 3, Width: 2}, sim.AbortLocalScheduler},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			oracle := analysis.NewOracle()
			cfg := sim.Config{
				Spec: workload.Spec{
					K:               4,
					Load:            0.7,
					FracLocal:       0.6,
					MeanLocalExec:   1,
					MeanSubtaskExec: 1,
					SlackMin:        1.25,
					SlackMax:        5,
					Factory:         c.factory,
					DagFactory:      c.dag,
				},
				PSP:          sda.MustDiv(1),
				Abort:        c.abort,
				Duration:     400,
				Warmup:       50,
				Replications: 2,
				Seed:         13,
				Recorder:     oracle,
			}
			if _, err := sim.Run(cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if oracle.Checks() == 0 {
				t.Fatalf("oracle performed no checks")
			}
			if oracle.ViolationCount() != 0 {
				t.Fatalf("%d oracle violations, e.g. %v", oracle.ViolationCount(), oracle.Violations())
			}
		})
	}
}

// TestCondBoundsAgainstSimulation checks the conditional-DAG bounds that
// sdacalc -analyze prints against simulated runs. Realizations of one
// fixed template are submitted, one every gap time units, each with the
// same relative deadline d, into a k-node system that is idle or carries
// local Poisson load through workload.Driver. The simulated miss fraction
// must be at least MissLowerBound(d) less three binomial standard
// deviations, the mean response at least ExpResponseLower less three
// standard errors (on an idle system the mean response estimates exactly
// that bound, so sampling noise alone may put it a little below), and
// every response at least its realization's critical path. Deadlines
// are fixed here rather than drawn through Spec, whose deadline is the
// realization's critical path plus slack, so that every realization
// would fit and the miss bound would read 0.
func TestCondBoundsAgainstSimulation(t *testing.T) {
	const (
		k   = 4
		n   = 2000
		gap = 20 // above every realization's volume: idle runs never overlap
	)
	templates := map[string]string{
		// Critical paths 4 (p 0.3) and 6 (p 0.7); E[critical] = 5.4.
		"diamond": "s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t",
		// Nested branch points: critical paths 7 (p 0.5), 5 (p 0.125)
		// and 7 (p 0.375).
		"nested": "s@0:1 a@1:2 b@2:5 c@3:1 d@1:3 t@0:1 ; s>a:0.5 s>b:0.5 a>c:0.25 a>d:0.75 b>t c>t d>t",
	}
	cases := []struct {
		template string
		d        simtime.Duration
		load     float64 // local load per node; 0 = idle
		wantLB   float64 // MissLowerBound(d), pinned so a tight case stays tight
	}{
		{"diamond", 5, 0, 0.7},
		{"diamond", 5, 0.6, 0.7},
		{"diamond", 7, 0, 0},
		{"diamond", 7, 0.6, 0},
		{"diamond", 3, 0.6, 1},
		{"nested", 6, 0, 0.875},
		{"nested", 6, 0.6, 0.875},
	}
	for i, c := range cases {
		label := fmt.Sprintf("%s d=%v load=%v", c.template, c.d, c.load)
		cd, err := task.ParseCondDag(templates[c.template])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s, err := analysis.SummarizeCond(cd, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lb := s.MissLowerBound(c.d, 1)
		if math.Abs(lb-c.wantLB) > 1e-12 {
			t.Fatalf("%s: MissLowerBound = %v, want %v", label, lb, c.wantLB)
		}

		eng := des.New()
		nodes := make([]*node.Node, k)
		for j := range nodes {
			nodes[j] = node.New(j, eng)
		}
		mgr := procmgr.New(eng, nodes, sda.EQF{}, sda.MustDiv(1))
		mgr.KeepTasks()
		horizon := simtime.Time(gap * (n + 1))
		if c.load > 0 {
			spec := workload.Baseline(nil)
			spec.K, spec.Load, spec.FracLocal = k, c.load, 1
			drv, err := workload.NewDriver(eng, mgr, spec, uint64(100+i))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := drv.Start(horizon); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		stream := rng.NewStream(uint64(200 + i))
		dags := make([]*task.Dag, n)
		for j := range dags {
			at := simtime.Time(gap * (j + 1))
			if _, err := eng.At(at, func() {
				d, err := cd.Realize(stream, nil)
				if err != nil {
					panic(err)
				}
				d.Root().RealDeadline = at.Add(c.d)
				if err := mgr.SubmitDag(d); err != nil {
					panic(err)
				}
				dags[j] = d
			}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		eng.Run()

		var missed int
		var sum, sumSq float64
		for j, d := range dags {
			root := d.Root()
			if !root.Finished() {
				t.Fatalf("%s: realization %d never finished", label, j)
			}
			resp := root.Finish.Sub(root.Arrival)
			if cp := d.CriticalPath(); resp < cp {
				t.Fatalf("%s: realization %d responded in %v, below its critical path %v", label, j, resp, cp)
			}
			if root.Missed() {
				missed++
			}
			sum += float64(resp)
			sumSq += float64(resp) * float64(resp)
		}
		frac := float64(missed) / n
		if sigma := math.Sqrt(lb * (1 - lb) / n); frac < lb-3*sigma {
			t.Errorf("%s: miss fraction %v below MissLowerBound %v - 3σ (σ = %.4f)", label, frac, lb, sigma)
		}
		mean := sum / n
		se := math.Sqrt(math.Max(sumSq/n-mean*mean, 0) / n)
		if lower := float64(s.ExpResponseLower(1)); mean < lower-3*se {
			t.Errorf("%s: mean response %v below ExpResponseLower %v - 3 SE (SE = %.4f)", label, mean, lower, se)
		}
		t.Logf("%s: miss %.4f (bound %v), mean response %.4f (bound %v)", label, frac, lb, mean, s.ExpResponseLower(1))
	}
}
