package task

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/simtime"
)

// This file generalizes the serial-parallel task trees of rules GT1-GT3 to
// arbitrary precedence DAGs: vertices are simple subtasks, edges are
// precedence constraints ("v may start only after every predecessor of v
// has finished"). Every serial-parallel tree embeds into a DAG (see
// FromTree), and the decomposition in structure.go recovers the tree
// structure where it exists, so DAG-aware deadline assignment reduces
// exactly to the paper's Figure 13 recursion on trees while also covering
// shapes the tree grammar cannot express — fork-joins with cross-stage
// edges, layered dataflow graphs, diamonds.

// Errors reported by the DAG builders and Validate.
var (
	ErrEmptyDag    = errors.New("task: DAG has no nodes")
	ErrCycle       = errors.New("task: precedence graph has a cycle")
	ErrForeignNode = errors.New("task: node belongs to a different DAG")
	ErrSelfEdge    = errors.New("task: self edge")
	ErrDupEdge     = errors.New("task: duplicate edge")
	ErrDupName     = errors.New("task: duplicate node name")
)

// DagNode is one vertex of a precedence DAG: a simple subtask together
// with its precedence neighbourhood. The embedded Task carries the timing
// attributes (Exec, Pex, Arrival, VirtualDeadline, ...) exactly as tree
// leaves do, so nodes flow through the local schedulers, recorders and
// telemetry unchanged.
type DagNode struct {
	Task *Task

	dag   *Dag
	id    int
	preds []*DagNode
	succs []*DagNode
}

// ID returns the node's index in Dag.Nodes (insertion order).
func (n *DagNode) ID() int { return n.id }

// Preds returns the node's direct predecessors. The slice is owned by the
// DAG; callers must not mutate it.
func (n *DagNode) Preds() []*DagNode { return n.preds[:len(n.preds):len(n.preds)] }

// Succs returns the node's direct successors. The slice is owned by the
// DAG; callers must not mutate it.
func (n *DagNode) Succs() []*DagNode { return n.succs[:len(n.succs):len(n.succs)] }

// Dag is a precedence DAG over simple subtasks. Build one with NewDag,
// AddTask and AddEdge (or ParseDag / FromTree) and check it with Validate.
//
// Vertices, adjacency lists, the topological order, the accounting root
// and the decomposition are carved from storage the DAG keeps rather than
// allocated one by one; Grow sizes it up front when the shape is known. A
// DAG drawn from a Slab goes back to it whole (Slab.ReclaimDag) and keeps
// that storage for its next use, so a steady stream of DAGs stops
// allocating. Within one use, a vertex's identity is stable.
type Dag struct {
	Name string

	nodes []*DagNode
	edges int

	verts arena[DagNode]  // vertex records, handed out by AddTask
	adj   arena[*DagNode] // preds and succs lists are carved from it

	topo   []*DagNode // topological order, see TopoOrder
	sorted bool       // topo holds the current order

	acct Task  // accounting root storage, see Root
	root *Task // &acct once built; nil when stale

	st     *Structure // memoized decomposition, see Decompose; nil when stale
	decomp decompArenas

	pooled bool // drawn from a Slab, which may take it back
	free   bool // reclaimed, waiting in its slab
}

// NewDag returns an empty DAG.
func NewDag(name string) *Dag { return &Dag{Name: name} }

// Grow reserves room for at least nodes more vertices and edges more
// edges, so that adding them allocates no vertex records or adjacency
// lists. It is only a hint; building past it stays correct.
func (d *Dag) Grow(nodes, edges int) {
	if nodes > 0 {
		d.nodes = slices.Grow(d.nodes, nodes)
		d.verts.reserve(nodes)
	}
	// Each edge adds one successor and one predecessor entry, and a list
	// of final length L occupies under 4L arena entries once its doublings
	// are counted, so 8 entries per edge always suffice.
	if edges > 0 {
		d.adj.reserve(8 * edges)
	}
}

// appendAdj appends v to list, an adjacency list of d. A full list moves
// to twice its capacity carved from the adjacency arena, so lists share a
// few large allocations instead of growing one by one.
func (d *Dag) appendAdj(list []*DagNode, v *DagNode) []*DagNode {
	if len(list) < cap(list) {
		return append(list, v)
	}
	size := max(2, 2*cap(list))
	grown := append(d.adj.carve(size, max(64, 4*size))[:0], list...)
	return append(grown, v)
}

// changed drops every memo derived from the graph: the topological order
// and the decomposition. Adding a vertex also drops the accounting root.
func (d *Dag) changed() {
	d.sorted = false
	d.st = nil
}

// reset empties a reclaimed DAG for its next use, keeping its storage.
// Every vertex record, list and structure handed out becomes invalid, and
// the accounting root is poisoned (Kind 0, Node -1) like a reclaimed task.
func (d *Dag) reset() {
	clear(d.nodes)
	d.nodes = d.nodes[:0]
	d.edges = 0
	d.verts.reset()
	d.adj.reset()
	clear(d.topo)
	d.topo = d.topo[:0]
	ch := d.acct.Children[:cap(d.acct.Children)]
	clear(ch)
	d.acct = Task{Children: ch[:0], Node: -1}
	d.root = nil
	d.decomp.reset()
	d.changed()
	d.Name = ""
}

// AddTask appends a simple subtask as a new DAG vertex. Node names need
// not be unique in general, but ParseDag/String round trips require them
// to be; AddTask rejects only nil and non-simple tasks.
func (d *Dag) AddTask(t *Task) (*DagNode, error) {
	if t == nil {
		return nil, ErrNilChild
	}
	if !t.IsSimple() {
		return nil, fmt.Errorf("%w: %q", ErrNotSimple, t.Name)
	}
	n := &d.verts.carve(1, max(4, len(d.nodes)))[0]
	*n = DagNode{Task: t, dag: d, id: len(d.nodes)}
	d.nodes = append(d.nodes, n)
	d.root = nil
	d.changed()
	return n, nil
}

// MustAddTask is AddTask panicking on error; for tests and examples.
func (d *Dag) MustAddTask(t *Task) *DagNode {
	n, err := d.AddTask(t)
	if err != nil {
		panic(err)
	}
	return n
}

// AddEdge records the precedence constraint "from before to". Cycles are
// detected by Validate, not here (edge insertion stays O(degree)).
func (d *Dag) AddEdge(from, to *DagNode) error {
	if from == nil || to == nil {
		return ErrNilChild
	}
	if from.dag != d || to.dag != d {
		return ErrForeignNode
	}
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfEdge, from.Task.Name)
	}
	for _, s := range from.succs {
		if s == to {
			return fmt.Errorf("%w: %q -> %q", ErrDupEdge, from.Task.Name, to.Task.Name)
		}
	}
	from.succs = d.appendAdj(from.succs, to)
	to.preds = d.appendAdj(to.preds, from)
	d.edges++
	d.changed()
	return nil
}

// MustAddEdge is AddEdge panicking on error; for tests and examples.
func (d *Dag) MustAddEdge(from, to *DagNode) {
	if err := d.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Len returns the number of vertices.
func (d *Dag) Len() int { return len(d.nodes) }

// EdgeCount returns the number of precedence edges.
func (d *Dag) EdgeCount() int { return d.edges }

// Nodes returns the vertices in insertion order. The slice is owned by
// the DAG; callers must not mutate it.
func (d *Dag) Nodes() []*DagNode { return d.nodes }

// Sources returns the vertices with no predecessors, in id order.
func (d *Dag) Sources() []*DagNode {
	var out []*DagNode
	for _, n := range d.nodes {
		if len(n.preds) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Sinks returns the vertices with no successors, in id order.
func (d *Dag) Sinks() []*DagNode {
	var out []*DagNode
	for _, n := range d.nodes {
		if len(n.succs) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// TopoOrder returns the vertices in a deterministic topological order
// (Kahn's algorithm, smallest id first among the ready set), or ErrCycle.
// The order is computed once and memoized until the next AddTask or
// AddEdge, so Validate, Decompose and the path and shape queries share
// it. The slice is owned by the DAG and valid until the graph changes;
// callers must not mutate it.
func (d *Dag) TopoOrder() ([]*DagNode, error) {
	n := len(d.nodes)
	if n == 0 {
		return nil, nil
	}
	if d.sorted {
		return d.topo, nil
	}
	sc := getScratch(n)
	defer putScratch(sc)
	indeg := sc.ints[:n]
	for _, v := range d.nodes {
		indeg[v.id] = len(v.preds)
	}
	// The ready set is kept sorted by id; graphs here are small (tens of
	// nodes), so the O(n log n) insertions are immaterial.
	ready := sc.ints[n:n]
	for _, v := range d.nodes {
		if indeg[v.id] == 0 {
			ready = append(ready, v.id) // ids ascend: already sorted
		}
	}
	out := slices.Grow(d.topo[:0], n)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		v := d.nodes[id]
		out = append(out, v)
		for _, s := range v.succs {
			indeg[s.id]--
			if indeg[s.id] == 0 {
				i, _ := slices.BinarySearch(ready, s.id)
				ready = slices.Insert(ready, i, s.id)
			}
		}
	}
	d.topo = out
	if len(out) != n {
		return nil, ErrCycle
	}
	d.sorted = true
	return out, nil
}

// Validate checks the structural invariants of the whole DAG: at least
// one vertex, every vertex a valid simple subtask, and acyclicity.
func (d *Dag) Validate() error {
	if len(d.nodes) == 0 {
		return ErrEmptyDag
	}
	for _, n := range d.nodes {
		if n.Task == nil {
			return fmt.Errorf("task: DAG node %d: %w", n.id, ErrNilChild)
		}
		if err := n.Task.Validate(); err != nil {
			return err
		}
		if !n.Task.IsSimple() {
			return fmt.Errorf("%w: DAG node %q", ErrNotSimple, n.Task.Name)
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// CriticalPath returns the execution time of the longest path through the
// DAG — the generalization of the tree CriticalPath (sum over series, max
// over parallel branches).
func (d *Dag) CriticalPath() simtime.Duration {
	return d.longestPath(func(t *Task) simtime.Duration { return t.Exec })
}

// PredictedCriticalPath is CriticalPath over Pex instead of Exec.
func (d *Dag) PredictedCriticalPath() simtime.Duration {
	return d.longestPath(func(t *Task) simtime.Duration { return t.Pex })
}

// longestPath returns the weight of the heaviest path through the DAG,
// or 0 for a cyclic graph: the cluster DP with every vertex a member.
func (d *Dag) longestPath(weight func(*Task) simtime.Duration) simtime.Duration {
	topo, err := d.TopoOrder()
	if err != nil {
		return 0
	}
	sc := getScratch(len(d.nodes))
	defer putScratch(sc)
	return memberDown(topo, weight, sc.dur[:len(d.nodes)])
}

// TotalWork returns the sum of execution times over all vertices.
func (d *Dag) TotalWork() simtime.Duration {
	var sum simtime.Duration
	for _, n := range d.nodes {
		sum += n.Task.Exec
	}
	return sum
}

// levels fills lvl, indexed by vertex id, with each vertex's longest hop
// distance from any source, and returns the largest; it reports false for
// a cyclic graph.
func (d *Dag) levels(lvl []int) (int, bool) {
	topo, err := d.TopoOrder()
	if err != nil {
		return 0, false
	}
	clear(lvl)
	max := 0
	for _, n := range topo {
		for _, p := range n.preds {
			if lvl[p.id]+1 > lvl[n.id] {
				lvl[n.id] = lvl[p.id] + 1
			}
		}
		if lvl[n.id] > max {
			max = lvl[n.id]
		}
	}
	return max, true
}

// Depth returns the number of vertices on the longest precedence chain; a
// single vertex has depth 1, matching the tree Depth convention for
// leaves. Returns 0 for a cyclic or empty graph.
func (d *Dag) Depth() int {
	n := len(d.nodes)
	if n == 0 {
		return 0
	}
	sc := getScratch(n)
	defer putScratch(sc)
	max, ok := d.levels(sc.ints[:n])
	if !ok {
		return 0
	}
	return max + 1
}

// Width returns the size of the largest level (vertices at the same
// longest hop distance from the sources) — a cheap, deterministic proxy
// for the maximum parallelism the DAG can express.
func (d *Dag) Width() int {
	n := len(d.nodes)
	sc := getScratch(n)
	defer putScratch(sc)
	lvl := sc.ints[:n]
	max, ok := d.levels(lvl)
	if !ok || n == 0 {
		return 0
	}
	counts := sc.ints[n : n+max+1] // levels are below n
	clear(counts)
	for _, l := range lvl {
		counts[l]++
	}
	w := 0
	for _, c := range counts {
		if c > w {
			w = c
		}
	}
	return w
}

// Clone returns a deep copy with every vertex task reset to its pristine
// (unreleased) state, preserving structure, execution times and node
// placement.
func (d *Dag) Clone() *Dag {
	c := NewDag(d.Name)
	c.Grow(len(d.nodes), d.edges)
	for _, n := range d.nodes {
		c.MustAddTask(n.Task.Clone())
	}
	for _, n := range d.nodes {
		for _, s := range n.succs {
			c.MustAddEdge(c.nodes[n.id], c.nodes[s.id])
		}
	}
	return c
}

// Root returns the DAG's accounting root: a synthetic parallel composite
// over every vertex task. The process manager and recorders use it where
// the tree machinery expects a global root — CountSimple, TotalWork,
// Arrival/Finish/RealDeadline and Walk behave exactly as for trees. Its
// CriticalPath (max over children) is only a lower bound on the DAG's
// true critical path; use Dag.CriticalPath where the path length matters.
// The root is built once and memoized, so recorders can key state by its
// pointer identity across the run. It lives in the DAG's own storage and
// goes back to the slab with it.
func (d *Dag) Root() *Task {
	if d.root != nil {
		return d.root
	}
	children := slices.Grow(d.acct.Children[:0], len(d.nodes))
	for _, n := range d.nodes {
		children = append(children, n.Task)
	}
	d.acct = pristine(d.Name, KindParallel, 0, 0, 0)
	d.acct.Children = children
	d.root = &d.acct
	return d.root
}

// FromTree converts a serial-parallel task tree into its precedence DAG:
// one vertex per leaf (the leaf tasks are deep-copied, runtime attributes
// reset), and for every serial composition an edge from each exit of a
// stage to each entry of the next. The conversion is many-to-one — nested
// serial (or parallel) composites flatten into the same DAG — so the
// decomposition recovers the canonical flattened form of the tree.
func FromTree(t *Task) (*Dag, error) {
	if t == nil {
		return nil, ErrNilChild
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	d := NewDag(t.Name)
	if _, _, err := fromTree(d, t); err != nil {
		return nil, err
	}
	return d, nil
}

// fromTree adds the subtree to d and returns its entry and exit vertex
// sets (the vertices with no predecessor / successor within the subtree).
func fromTree(d *Dag, t *Task) (entries, exits []*DagNode, err error) {
	switch t.Kind {
	case KindSimple:
		n, err := d.AddTask(t.Clone())
		if err != nil {
			return nil, nil, err
		}
		return []*DagNode{n}, []*DagNode{n}, nil
	case KindSerial:
		var prevExits []*DagNode
		for i, c := range t.Children {
			en, ex, err := fromTree(d, c)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				entries = en
			} else {
				for _, from := range prevExits {
					for _, to := range en {
						if err := d.AddEdge(from, to); err != nil {
							return nil, nil, err
						}
					}
				}
			}
			prevExits = ex
		}
		return entries, prevExits, nil
	case KindParallel:
		for _, c := range t.Children {
			en, ex, err := fromTree(d, c)
			if err != nil {
				return nil, nil, err
			}
			entries = append(entries, en...)
			exits = append(exits, ex...)
		}
		return entries, exits, nil
	default:
		return nil, nil, fmt.Errorf("task %q: invalid kind %v", t.Name, t.Kind)
	}
}
