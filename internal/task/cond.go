package task

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Probabilistic conditional precedence DAGs, after Ueter et al.,
// "Response-Time Analysis and Optimization for Probabilistic Conditional
// Parallel DAG Tasks" (arXiv:2101.11053).
//
// A CondDag is a precedence DAG in which some vertices are *conditional
// branch points*: when such a vertex finishes, exactly one of its
// out-edges is taken, chosen with a fixed probability per edge (the
// probabilities of one vertex sum to 1). Vertices reachable only through
// edges that were not taken never activate. Because the branch outcome is
// drawn independently of execution (an if/else resolved by the task's
// input, not by timing), sampling the outcomes up front is semantically
// equivalent to resolving them online; a concrete draw is called a
// *realization* and is an ordinary Dag that flows through deadline
// assignment, the process manager and the analysis package unchanged.
//
// Activation semantics over one draw of branch outcomes:
//
//   - every source vertex (no predecessors) is active;
//   - a non-source vertex is active iff at least one of its predecessors
//     is active and the connecting edge is taken — unconditional edges
//     from an active vertex are always taken, conditional edges only when
//     chosen;
//   - a join vertex therefore waits only for its active predecessors; the
//     realization keeps exactly the active vertices and the taken edges
//     between them.

// Errors reported by the conditional-DAG builders and Validate.
var (
	ErrNotConditional      = errors.New("task: vertex is not a conditional branch point")
	ErrBranchProb          = errors.New("task: branch probability must be in (0, 1]")
	ErrBranchSum           = errors.New("task: conditional out-edge probabilities must sum to 1")
	ErrBranchArity         = errors.New("task: branch probabilities must cover every out-edge")
	ErrNoBranches          = errors.New("task: conditional vertex needs at least one out-edge")
	ErrTooManyRealizations = errors.New("task: realization count exceeds limit")
)

// BranchProbTol is the absolute tolerance within which a conditional
// vertex's out-edge probabilities must sum to 1. Parsers round-trip
// probabilities through decimal notation, so exact float equality is not
// required.
const BranchProbTol = 1e-9

// CondDag is a precedence DAG with probabilistic conditional branch
// points. Build the structure with NewCondDag over an ordinary Dag, mark
// branch points with SetBranch (or parse the whole thing with
// ParseCondDag), and draw concrete realizations with Realize.
type CondDag struct {
	dag *Dag
	// probs[n.id] is non-nil iff vertex n is conditional; it then holds
	// one probability per out-edge, parallel to n.Succs(). The slice grows
	// on demand, so vertices added after NewCondDag need no bookkeeping.
	probs [][]float64
	// arena backs the probs entries: SetBranch copies each vertex's
	// probabilities onto its end, and a CondDag recycled through a Slab
	// reuses it.
	arena []float64
}

// NewCondDag wraps a DAG with (initially empty) conditional annotations.
// The CondDag shares the underlying graph; callers must not add vertices
// or edges after marking branch points (Validate re-checks arity).
func NewCondDag(d *Dag) *CondDag {
	return &CondDag{dag: d}
}

// Dag returns the underlying full graph (every vertex, every edge).
func (cd *CondDag) Dag() *Dag { return cd.dag }

// SetBranch marks vertex n as a conditional branch point with one
// probability per out-edge, in Succs order. Each probability must lie in
// (0, 1] and they must sum to 1 within BranchProbTol.
func (cd *CondDag) SetBranch(n *DagNode, probs []float64) error {
	if n == nil {
		return ErrNilChild
	}
	if n.dag != cd.dag {
		return ErrForeignNode
	}
	if len(n.succs) == 0 {
		return fmt.Errorf("%w: %q", ErrNoBranches, n.Task.Name)
	}
	if len(probs) != len(n.succs) {
		return fmt.Errorf("%w: %q has %d out-edges, got %d probabilities",
			ErrBranchArity, n.Task.Name, len(n.succs), len(probs))
	}
	if err := checkBranchProbs(n.Task.Name, probs); err != nil {
		return err
	}
	at := len(cd.arena)
	cd.arena = append(cd.arena, probs...)
	if n.id >= len(cd.probs) {
		cd.probs = append(cd.probs, make([][]float64, n.id+1-len(cd.probs))...)
	}
	cd.probs[n.id] = cd.arena[at:len(cd.arena):len(cd.arena)]
	return nil
}

// checkBranchProbs validates one vertex's branch probabilities.
func checkBranchProbs(name string, probs []float64) error {
	sum := 0.0
	for _, p := range probs {
		if math.IsNaN(p) || p <= 0 || p > 1 {
			return fmt.Errorf("%w: %q has probability %v", ErrBranchProb, name, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > BranchProbTol {
		return fmt.Errorf("%w: %q sums to %v", ErrBranchSum, name, sum)
	}
	return nil
}

// Branch returns the branch probabilities of vertex n (parallel to
// n.Succs()) and whether n is a conditional branch point. The slice is
// owned by the CondDag; callers must not mutate it.
func (cd *CondDag) Branch(n *DagNode) ([]float64, bool) {
	p := cd.branch(n.id)
	return p, p != nil
}

// branch returns the branch probabilities of the vertex with the given
// id, or nil if it is unconditional.
func (cd *CondDag) branch(id int) []float64 {
	if id < len(cd.probs) {
		return cd.probs[id]
	}
	return nil
}

// Conditional reports whether vertex n is a conditional branch point.
func (cd *CondDag) Conditional(n *DagNode) bool { return cd.branch(n.id) != nil }

// CondCount returns the number of conditional branch points.
func (cd *CondDag) CondCount() int {
	n := 0
	for _, p := range cd.probs {
		if p != nil {
			n++
		}
	}
	return n
}

// Validate checks the underlying DAG and every branch annotation: arity
// still matches the out-edge count (edges added after SetBranch are a
// structural error), probabilities in (0, 1], sums within BranchProbTol
// of 1. Branch points are checked in vertex id order, so when several
// are bad the error always names the one with the smallest id.
func (cd *CondDag) Validate() error {
	if err := cd.dag.Validate(); err != nil {
		return err
	}
	for id, probs := range cd.probs {
		if probs == nil {
			continue
		}
		n := cd.dag.nodes[id]
		if len(probs) != len(n.succs) {
			return fmt.Errorf("%w: %q has %d out-edges but %d probabilities",
				ErrBranchArity, n.Task.Name, len(n.succs), len(probs))
		}
		if err := checkBranchProbs(n.Task.Name, probs); err != nil {
			return err
		}
	}
	return nil
}

// realize builds the realization induced by choose, which is called once
// per *active* conditional vertex in topological order and must return
// the index of the taken out-edge. It returns the concrete Dag, which it
// draws with its vertex tasks from slab, and fills active, indexed by
// base vertex id, with the activation mask. taken and clone are working
// memory of at least one entry per base vertex.
func (cd *CondDag) realize(topo []*DagNode, slab *Slab, active []bool, taken []int, clone []*DagNode, choose func(n *DagNode, probs []float64) int) *Dag {
	n := len(cd.dag.nodes)
	active, taken, clone = active[:n], taken[:n], clone[:n]
	clear(active)
	// taken[id] is the chosen out-edge index of an active conditional
	// vertex, or -1 (all out-edges taken / vertex inactive).
	for i := range taken {
		taken[i] = -1
	}
	for _, v := range topo {
		if len(v.preds) == 0 {
			active[v.id] = true
		} else {
			for _, p := range v.preds {
				if active[p.id] && edgeTaken(p, v, taken[p.id]) {
					active[v.id] = true
					break
				}
			}
		}
		if !active[v.id] {
			continue
		}
		if probs := cd.branch(v.id); probs != nil {
			taken[v.id] = choose(v, probs)
		}
	}

	out := slab.Dag(cd.dag.Name)
	live := 0
	for _, on := range active {
		if on {
			live++
		}
	}
	out.Grow(live, 0)
	for _, v := range cd.dag.nodes { // id order keeps realizations canonical
		if !active[v.id] {
			continue
		}
		clone[v.id] = out.MustAddTask(slab.Clone(v.Task))
	}
	for _, v := range cd.dag.nodes {
		if !active[v.id] {
			continue
		}
		for si, s := range v.succs {
			if !active[s.id] {
				continue
			}
			if taken[v.id] >= 0 && si != taken[v.id] {
				continue // conditional edge not chosen
			}
			out.MustAddEdge(clone[v.id], clone[s.id])
		}
	}
	clear(clone)
	return out
}

// edgeTaken reports whether the edge from p to v is taken given p's
// chosen out-edge index (-1 for unconditional vertices).
func edgeTaken(p, v *DagNode, chosen int) bool {
	if chosen < 0 {
		return true
	}
	return p.succs[chosen] == v
}

// Realize draws one realization: each active conditional vertex picks one
// out-edge with its configured probability (one Float64 draw per active
// branch point, in topological order, so a fixed stream yields a fixed
// realization). The result is a fresh, valid Dag of the active vertices
// with runtime attributes reset, drawn with its vertex tasks from slab
// (nil allocates each on its own); the original CondDag is not mutated.
func (cd *CondDag) Realize(stream *rng.Stream, slab *Slab) (*Dag, error) {
	if err := cd.Validate(); err != nil {
		return nil, err
	}
	topo, err := cd.dag.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(cd.dag.nodes)
	sc := getScratch(n)
	defer putScratch(sc)
	d := cd.realize(topo, slab, sc.srcQ, sc.ints, sc.queue[:n], func(_ *DagNode, probs []float64) int {
		u := stream.Float64()
		acc := 0.0
		for i, p := range probs {
			acc += p
			if u < acc {
				return i
			}
		}
		return len(probs) - 1 // guard against float underflow of the sum
	})
	return d, nil
}

// Realization is one concrete outcome of the branch draws: the induced
// Dag, its exact probability, and the activation mask over the base
// graph's vertex ids.
type Realization struct {
	Dag    *Dag
	Prob   float64
	Active []bool
}

// Realizations enumerates every realization with its probability, in a
// deterministic order (branch choices explored in out-edge order along
// the topological order). Probabilities sum to 1. Two distinct choice
// vectors that differ only at inactive branch points collapse into one
// realization, so the enumeration never double-counts. limit caps the
// number of realizations (<= 0 means DefaultRealizationLimit); exceeding
// it returns ErrTooManyRealizations.
func (cd *CondDag) Realizations(limit int) ([]Realization, error) {
	if err := cd.Validate(); err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = DefaultRealizationLimit
	}
	topo, err := cd.dag.TopoOrder()
	if err != nil {
		return nil, err
	}
	var out []Realization
	// Depth-first over the choice vectors of the *active* conditional
	// vertices: rerun the activation sweep with a scripted chooser that
	// follows the prefix and branches at the first fresh decision.
	var walk func(prefix []int, prob float64) error
	walk = func(prefix []int, prob float64) error {
		used := 0
		fresh := -1 // number of choices available at the first fresh branch point
		var freshProbs []float64
		size := len(cd.dag.nodes)
		active := make([]bool, size)
		d := cd.realize(topo, nil, active, make([]int, size), make([]*DagNode, size), func(n *DagNode, probs []float64) int {
			if used < len(prefix) {
				i := prefix[used]
				used++
				return i
			}
			if fresh < 0 {
				fresh = len(probs)
				freshProbs = probs
			}
			return 0 // provisional; this path is re-walked per choice below
		})
		if fresh < 0 {
			if len(out) >= limit {
				return fmt.Errorf("%w (%d)", ErrTooManyRealizations, limit)
			}
			out = append(out, Realization{Dag: d, Prob: prob, Active: active})
			return nil
		}
		for i := 0; i < fresh; i++ {
			next := make([]int, len(prefix)+1)
			copy(next, prefix)
			next[len(prefix)] = i
			if err := walk(next, prob*freshProbs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(nil, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultRealizationLimit bounds realization enumeration: 2^12 outcomes
// is far beyond any workload template this repository generates, while
// still failing fast on adversarial parser inputs.
const DefaultRealizationLimit = 4096
