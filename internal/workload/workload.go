// Package workload implements the stochastic workload model of the
// paper's Section 5: per-node Poisson streams of local tasks, a single
// Poisson stream of global tasks, exponential execution times, uniform
// slack, and the load / frac_local parameterisation
//
//	load       = (n·λg/μsub + k·λl/μl) / k
//	frac_local = (k·λl/μl) / (n·λg/μsub + k·λl/μl)
//
// from which the two arrival rates are derived. Global task shapes are
// produced by pluggable factories (fixed-fanout parallel tasks, the
// non-homogeneous uniform [2..6] mix of Section 7.4, and the five-stage
// serial-parallel pipeline of Section 8).
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Errors reported by Spec.Validate.
var (
	ErrBadSpec = errors.New("workload: invalid specification")
)

// Spec is the full workload parameterisation. The zero value is not
// usable; start from Baseline() and override fields.
type Spec struct {
	K         int     // number of nodes
	Load      float64 // normalized load (Table 1 baseline: 0.5)
	FracLocal float64 // fraction of load due to local tasks (baseline: 0.75)

	MeanLocalExec   float64 // 1/μ_local (baseline: 1.0)
	MeanSubtaskExec float64 // 1/μ_subtask (baseline: 1.0)

	SlackMin, SlackMax float64 // local-task slack range (baseline: [1.25, 5])
	// Global slack range; when both are zero the local range is used.
	// Section 8 scales it by the number of serial stages ([6.25, 25]).
	GlobalSlackMin, GlobalSlackMax float64

	Factory Factory // tree shape of global tasks (nil allowed iff FracLocal == 1)
	// DagFactory generates precedence-DAG global tasks instead of trees.
	// Exactly one of Factory and DagFactory may be set when global tasks
	// are requested.
	DagFactory DagFactory
	Estimator  Estimator // pex model for subtasks (nil = Exact)

	// Service-time distribution families (nil = Exponential, the paper's
	// model). Both are parameterised by the mean exec fields above, so
	// the load equations are unchanged.
	LocalService   Dist
	SubtaskService Dist
}

// subtask returns the subtask service law.
func (s *Spec) subtask() Service {
	return Service{Dist: s.SubtaskService, Mean: s.MeanSubtaskExec}
}

// shape returns whichever global factory is set, tree or DAG, or nil.
func (s *Spec) shape() shape {
	if s.Factory != nil {
		return s.Factory
	}
	if s.DagFactory != nil {
		return s.DagFactory
	}
	return nil
}

// Validate checks the specification for consistency. The comparisons
// are negated so that a NaN field fails them; an infinite one fails the
// math.MaxFloat64 bound.
func (s *Spec) Validate() error {
	switch {
	case s.K < 1:
		return fmt.Errorf("%w: K = %d", ErrBadSpec, s.K)
	case !(s.Load >= 0 && s.Load <= math.MaxFloat64):
		return fmt.Errorf("%w: load = %v", ErrBadSpec, s.Load)
	case !(s.FracLocal >= 0 && s.FracLocal <= 1):
		return fmt.Errorf("%w: frac_local = %v", ErrBadSpec, s.FracLocal)
	case !(s.MeanLocalExec > 0 && s.MeanLocalExec <= math.MaxFloat64):
		return fmt.Errorf("%w: mean local exec = %v", ErrBadSpec, s.MeanLocalExec)
	case !(s.MeanSubtaskExec > 0 && s.MeanSubtaskExec <= math.MaxFloat64):
		return fmt.Errorf("%w: mean subtask exec = %v", ErrBadSpec, s.MeanSubtaskExec)
	case !(s.SlackMin >= 0 && s.SlackMin <= s.SlackMax && s.SlackMax <= math.MaxFloat64):
		return fmt.Errorf("%w: slack range [%v, %v]", ErrBadSpec, s.SlackMin, s.SlackMax)
	case !(-math.MaxFloat64 <= s.GlobalSlackMin && s.GlobalSlackMin <= s.GlobalSlackMax && s.GlobalSlackMax <= math.MaxFloat64):
		return fmt.Errorf("%w: global slack range [%v, %v]", ErrBadSpec, s.GlobalSlackMin, s.GlobalSlackMax)
	}
	if s.Factory != nil && s.DagFactory != nil {
		return fmt.Errorf("%w: both a tree factory (%s) and a DAG factory (%s) set",
			ErrBadSpec, s.Factory.Name(), s.DagFactory.Name())
	}
	sh := s.shape()
	if sh == nil {
		if s.FracLocal < 1 {
			return fmt.Errorf("%w: global tasks requested (frac_local=%v) but no factory", ErrBadSpec, s.FracLocal)
		}
		return nil
	}
	return sh.Validate(s.K)
}

// FactoryName returns the name of whichever global factory is configured,
// or "none" when the spec generates only local tasks.
func (s *Spec) FactoryName() string {
	if sh := s.shape(); sh != nil {
		return sh.Name()
	}
	return "none"
}

// LocalRate returns λ_local, the per-node local arrival rate implied by
// the load equations.
func (s *Spec) LocalRate() float64 {
	return s.Load * s.FracLocal / s.MeanLocalExec
}

// GlobalRate returns λ_global, the system-wide global arrival rate implied
// by the load equations and the factory's expected work per global task.
func (s *Spec) GlobalRate() float64 {
	sh := s.shape()
	if s.FracLocal >= 1 || sh == nil {
		return 0
	}
	work := sh.ExpectedWork(s.MeanSubtaskExec)
	if work <= 0 {
		return 0
	}
	return s.Load * (1 - s.FracLocal) * float64(s.K) / work
}

// globalSlackRange returns the slack range used for global tasks.
func (s *Spec) globalSlackRange() (lo, hi float64) {
	if s.GlobalSlackMin == 0 && s.GlobalSlackMax == 0 {
		return s.SlackMin, s.SlackMax
	}
	return s.GlobalSlackMin, s.GlobalSlackMax
}

// Baseline returns the paper's Table 1 parameter setting with the given
// global task factory.
func Baseline(factory Factory) Spec {
	return Spec{
		K:               6,
		Load:            0.5,
		FracLocal:       0.75,
		MeanLocalExec:   1.0,
		MeanSubtaskExec: 1.0,
		SlackMin:        1.25,
		SlackMax:        5.0,
		Factory:         factory,
	}
}

// NewLocal draws one local task for the given node from slab (nil
// allocates it on its own): execution time from the local service law,
// uniform slack, deadline ar + ex + slack (arrival is stamped by the
// process manager at submission).
func (s *Spec) NewLocal(stream *rng.Stream, slab *task.Slab, nodeID int, ar simtime.Time) *task.Task {
	ex := Service{Dist: s.LocalService, Mean: s.MeanLocalExec}.Draw(stream)
	t, err := slab.Simple("", nodeID, ex)
	if err != nil {
		// Exec is drawn non-negative; this cannot fail.
		panic(fmt.Sprintf("workload: local task: %v", err))
	}
	slack := simtime.Duration(stream.Uniform(s.SlackMin, s.SlackMax))
	t.RealDeadline = ar.Add(ex + slack)
	return t
}

// NewGlobal draws one global task: the factory builds the tree (execution
// times, node placement) with every task drawn from slab, the estimator
// stamps pex on every leaf, and the root gets the Eq. 2 deadline (stamp).
func (s *Spec) NewGlobal(stream *rng.Stream, slab *task.Slab, ar simtime.Time) (*task.Task, error) {
	if s.Factory == nil {
		return nil, fmt.Errorf("%w: no global factory", ErrBadSpec)
	}
	root, err := s.Factory.New(stream, slab, s.K, s.subtask())
	if err != nil {
		return nil, err
	}
	s.stamp(stream, ar, root, nil)
	return root, nil
}

// NewGlobalDag draws one global DAG task: the DAG factory builds the graph
// (execution times, node placement, edges) with its vertex tasks drawn
// from slab, the estimator stamps pex on every vertex, and the DAG's
// accounting root gets the Eq. 2 deadline (stamp).
func (s *Spec) NewGlobalDag(stream *rng.Stream, slab *task.Slab, ar simtime.Time) (*task.Dag, error) {
	if s.DagFactory == nil {
		return nil, fmt.Errorf("%w: no global DAG factory", ErrBadSpec)
	}
	d, err := s.DagFactory.NewDag(stream, slab, s.K, s.subtask())
	if err != nil {
		return nil, err
	}
	s.stamp(stream, ar, nil, d)
	return d, nil
}

// stamp is the step every global draw ends with, on a tree or (with tree
// nil) a DAG: the estimator stamps pex on each subtask, in order, then
// the global slack is drawn and the tree's root or the DAG's accounting
// root gets the deadline of the paper's Eq. 2, generalised to trees and
// DAGs,
//
//	dl(T) = ar(T) + criticalPath(ex) + slack.
func (s *Spec) stamp(stream *rng.Stream, ar simtime.Time, tree *task.Task, dag *task.Dag) {
	est := s.Estimator
	if est == nil {
		est = Exact{}
	}
	mean := simtime.Duration(s.MeanSubtaskExec)
	root, critical := tree, simtime.Duration(0)
	if dag != nil {
		for _, n := range dag.Nodes() {
			n.Task.Pex = est.Pex(n.Task.Exec, mean, stream)
		}
		root, critical = dag.Root(), dag.CriticalPath()
	} else {
		tree.Walk(func(n *task.Task) {
			if n.IsSimple() {
				n.Pex = est.Pex(n.Exec, mean, stream)
			}
		})
		critical = tree.CriticalPath()
	}
	lo, hi := s.globalSlackRange()
	root.RealDeadline = ar.Add(critical + simtime.Duration(stream.Uniform(lo, hi)))
}

// SubmitGlobal draws one global task arriving at ar, tree or DAG as the
// spec's factory builds, from slab, and submits it to mgr.
func (s *Spec) SubmitGlobal(mgr *procmgr.Manager, stream *rng.Stream, slab *task.Slab, ar simtime.Time) error {
	if s.DagFactory != nil {
		d, err := s.NewGlobalDag(stream, slab, ar)
		if err != nil {
			return err
		}
		return mgr.SubmitDag(d)
	}
	root, err := s.NewGlobal(stream, slab, ar)
	if err != nil {
		return err
	}
	return mgr.SubmitGlobal(root)
}

// Estimator models the predicted execution time pex() of a subtask.
type Estimator interface {
	// Pex returns the prediction for a subtask with true execution time ex
	// drawn from a distribution with the given mean.
	Pex(ex, mean simtime.Duration, stream *rng.Stream) simtime.Duration
	// Name identifies the estimator in reports.
	Name() string
}

// Exact is the oracle estimator: pex = ex.
type Exact struct{}

// Pex implements Estimator.
func (Exact) Pex(ex, _ simtime.Duration, _ *rng.Stream) simtime.Duration { return ex }

// Name implements Estimator.
func (Exact) Name() string { return "exact" }

// Mean predicts every subtask at the distribution mean: pex = 1/μ. This is
// what a system without per-task knowledge would use.
type Mean struct{}

// Pex implements Estimator.
func (Mean) Pex(_, mean simtime.Duration, _ *rng.Stream) simtime.Duration { return mean }

// Name implements Estimator.
func (Mean) Name() string { return "mean" }

// Noisy multiplies the true execution time by a log-uniform factor in
// [1/Factor, Factor], modelling estimates that are "off by a factor of f"
// in either direction — the robustness regime the paper reports for EQF.
type Noisy struct {
	Factor float64
}

// Pex implements Estimator.
func (n Noisy) Pex(ex, _ simtime.Duration, stream *rng.Stream) simtime.Duration {
	f := n.Factor
	if f < 1 {
		if f <= 0 {
			return ex
		}
		f = 1 / f
	}
	if ex <= 0 {
		return ex
	}
	return simtime.Duration(float64(ex) * stream.LogUniform(1/f, f))
}

// Name implements Estimator.
func (n Noisy) Name() string { return fmt.Sprintf("noisy-x%g", n.Factor) }
