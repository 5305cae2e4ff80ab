package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/task"
)

// shape is what tree and DAG factories share: the load equations, Validate
// and reports read a Spec's global factory through it, whichever kind is
// set.
type shape interface {
	// ExpectedWork returns the expected total execution time per global
	// task given the mean subtask execution time; the load equations use
	// it to derive λ_global.
	ExpectedWork(meanExec float64) float64
	// Validate checks that the factory is realisable on k nodes.
	Validate(k int) error
	// Name identifies the factory in reports.
	Name() string
}

// Factory produces the tree shape of global tasks: structure, execution
// times and node placement. Implementations must place the subtasks of a
// parallel group at *distinct* nodes, per the paper's model ("n subtasks
// to be executed in parallel at n different nodes").
type Factory interface {
	// New draws one global task for a system of k nodes, drawing every
	// simple subtask's execution time from svc and every task of the
	// tree from slab (nil allocates each on its own).
	New(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Task, error)
	shape
}

// Compile-time interface checks.
var (
	_ Factory = FixedParallel{}
	_ Factory = UniformParallel{}
	_ Factory = SerialParallel{}
)

// FixedParallel builds the homogeneous global tasks of the baseline
// experiment: N simple subtasks executed in parallel at N distinct nodes.
type FixedParallel struct {
	N int // number of parallel subtasks (Table 1 baseline: 4)
}

// New implements Factory.
func (f FixedParallel) New(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Task, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	return parallelGroup(stream, slab, f.N, k, svc)
}

// ExpectedWork implements Factory.
func (f FixedParallel) ExpectedWork(meanExec float64) float64 {
	return float64(f.N) * meanExec
}

// Validate implements Factory.
func (f FixedParallel) Validate(k int) error {
	if f.N < 1 {
		return fmt.Errorf("%w: FixedParallel needs N >= 1, got %d", ErrBadSpec, f.N)
	}
	if f.N > k {
		return fmt.Errorf("%w: %d parallel subtasks need %d distinct nodes but k = %d",
			ErrBadSpec, f.N, f.N, k)
	}
	return nil
}

// Name implements Factory.
func (f FixedParallel) Name() string { return fmt.Sprintf("parallel-%d", f.N) }

// UniformParallel builds the non-homogeneous mix of Section 7.4: the
// number of parallel subtasks is uniform on [Min..Max] (the paper uses
// [2..6]), so the system carries five classes of global tasks.
type UniformParallel struct {
	Min, Max int
}

// New implements Factory.
func (f UniformParallel) New(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Task, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	n := stream.IntRange(f.Min, f.Max)
	return parallelGroup(stream, slab, n, k, svc)
}

// ExpectedWork implements Factory.
func (f UniformParallel) ExpectedWork(meanExec float64) float64 {
	return float64(f.Min+f.Max) / 2 * meanExec
}

// Validate implements Factory.
func (f UniformParallel) Validate(k int) error {
	if f.Min < 1 || f.Max < f.Min {
		return fmt.Errorf("%w: UniformParallel range [%d, %d]", ErrBadSpec, f.Min, f.Max)
	}
	if f.Max > k {
		return fmt.Errorf("%w: up to %d parallel subtasks need %d nodes but k = %d",
			ErrBadSpec, f.Max, f.Max, k)
	}
	return nil
}

// Name implements Factory.
func (f UniformParallel) Name() string {
	return fmt.Sprintf("parallel-u%d-%d", f.Min, f.Max)
}

// SerialParallel builds the Section 8 / Figure 14 task shape: Stages
// serial stages of which the 2nd, 4th, ... alternate stages (ParallelAt)
// are parallel groups of Fanout subtasks. The default (Stages=5, Fanout=4)
// models the stock-trading pipeline: initialization, distributed
// information gathering, analysis, action implementation, conclusion.
type SerialParallel struct {
	Stages int // number of serial stages (paper: 5)
	Fanout int // subtasks per parallel stage (paper: 4)
}

// parallelStage reports whether stage i (0-based) is a parallel group;
// Figure 14 makes stages 2 and 4 (1-based) parallel, i.e. odd 0-based.
func (f SerialParallel) parallelStage(i int) bool { return i%2 == 1 }

// New implements Factory.
func (f SerialParallel) New(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Task, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	if f.Stages == 1 {
		return slab.Simple("", stream.IntN(k), svc.Draw(stream))
	}
	root := slab.Composite("", task.KindSerial, f.Stages)
	for i := range root.Children {
		var stage *task.Task
		var err error
		if f.parallelStage(i) {
			stage, err = parallelGroup(stream, slab, f.Fanout, k, svc)
		} else {
			stage, err = slab.Simple("", stream.IntN(k), svc.Draw(stream))
		}
		if err != nil {
			return nil, err
		}
		root.Children[i] = stage
	}
	return root, nil
}

// ExpectedWork implements Factory.
func (f SerialParallel) ExpectedWork(meanExec float64) float64 {
	n := 0
	for i := 0; i < f.Stages; i++ {
		if f.parallelStage(i) {
			n += f.Fanout
		} else {
			n++
		}
	}
	return float64(float64(n) * meanExec)
}

// Validate implements Factory.
func (f SerialParallel) Validate(k int) error {
	if f.Stages < 1 {
		return fmt.Errorf("%w: SerialParallel needs >= 1 stage, got %d", ErrBadSpec, f.Stages)
	}
	if f.Stages > 1 && f.Fanout < 1 {
		return fmt.Errorf("%w: SerialParallel fanout %d", ErrBadSpec, f.Fanout)
	}
	// Stage 0 is serial, so a single-stage pipeline never instantiates a
	// parallel group; only multi-stage shapes constrain the node count.
	if f.Stages > 1 && f.Fanout > k {
		return fmt.Errorf("%w: fanout %d needs %d distinct nodes but k = %d",
			ErrBadSpec, f.Fanout, f.Fanout, k)
	}
	return nil
}

// Name implements Factory.
func (f SerialParallel) Name() string {
	return fmt.Sprintf("serial%d-fan%d", f.Stages, f.Fanout)
}

// parallelGroup draws n simple subtasks at n distinct nodes from slab,
// and the group itself too. A group of one collapses to the bare subtask.
func parallelGroup(stream *rng.Stream, slab *task.Slab, n, k int, svc Service) (*task.Task, error) {
	nodes := stream.Choose(k, n)
	if n == 1 {
		return slab.Simple("", nodes[0], svc.Draw(stream))
	}
	g := slab.Composite("", task.KindParallel, n)
	for i := range g.Children {
		leaf, err := slab.Simple("", nodes[i], svc.Draw(stream))
		if err != nil {
			return nil, err
		}
		g.Children[i] = leaf
	}
	return g, nil
}

// FactoryParams are the shape parameters of a factory chosen by name
// (ParseFactory); each factory reads the ones it needs.
type FactoryParams struct {
	N         int       // parallel width: group, layer or fork-member count
	Stages    int       // serial stages, layers or conditional stages
	EdgeProb  float64   // layered: extra-edge probability
	CrossProb float64   // forkjoin: stage-skip edge probability
	Branches  int       // cond: gates per fork
	Probs     []float64 // cond: branch probabilities (nil = uniform)
}

// ParseFactory returns the factory name selects, built from p: a tree
// factory for parallel, uniform and serial, a DAG factory for layered,
// forkjoin and cond. ok is false for any other name.
func ParseFactory(name string, p FactoryParams) (tree Factory, dag DagFactory, ok bool) {
	switch name {
	case "parallel":
		return FixedParallel{N: p.N}, nil, true
	case "uniform":
		return UniformParallel{Min: 2, Max: p.N}, nil, true
	case "serial":
		return SerialParallel{Stages: p.Stages, Fanout: p.N}, nil, true
	case "layered":
		return nil, LayeredDag{Layers: p.Stages, MinWidth: 1, MaxWidth: p.N, EdgeProb: p.EdgeProb}, true
	case "forkjoin":
		return nil, ForkJoinDag{Stages: p.Stages, Fanout: p.N, CrossProb: p.CrossProb}, true
	case "cond":
		return nil, ConditionalDag{Stages: p.Stages, Branches: p.Branches, Width: p.N, Probs: p.Probs}, true
	default:
		return nil, nil, false
	}
}
