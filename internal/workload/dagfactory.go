package workload

import (
	"fmt"
	"strconv"

	"repro/internal/rng"
	"repro/internal/task"
)

// DagFactory produces global tasks shaped as precedence DAGs rather than
// serial-parallel trees: vertex execution times, node placement and the
// edge set. Like Factory, implementations must place the vertices of any
// antichain that can run concurrently at distinct nodes (the vertices of
// one layer, or of one parallel stage).
type DagFactory interface {
	// NewDag draws one global DAG for a system of k nodes, drawing every
	// vertex's execution time from svc, and the DAG and its vertex
	// tasks from slab (nil allocates each on its own).
	NewDag(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Dag, error)
	shape
}

// Compile-time interface checks.
var (
	_ DagFactory = LayeredDag{}
	_ DagFactory = ForkJoinDag{}
)

// vertexNames holds "v0", "v1", ... for the vertex counts the shipped
// factories draw, so building a DAG allocates no name strings.
var vertexNames = func() []string {
	names := make([]string, 64)
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	return names
}()

// vertexName returns the name of the id-th vertex of a generated DAG,
// "v<id>".
func vertexName(id int) string {
	if id < len(vertexNames) {
		return vertexNames[id]
	}
	return "v" + strconv.Itoa(id)
}

// LayeredDag builds random layered DAGs: Layers layers whose widths are
// uniform on [MinWidth, MaxWidth], every vertex of layer i wired to at
// least one vertex of layer i-1, and each remaining (prev, next) pair
// connected independently with probability EdgeProb. Edges only ever point
// from one layer to the next, so the graph is acyclic by construction.
// Vertices of one layer execute in parallel and are placed at distinct
// nodes.
type LayeredDag struct {
	Layers             int     // number of layers (>= 1)
	MinWidth, MaxWidth int     // vertices per layer, uniform range
	EdgeProb           float64 // extra-edge probability in [0, 1]
}

// NewDag implements DagFactory.
func (f LayeredDag) NewDag(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Dag, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	d := slab.Dag("")
	// Layers are added one after another, so every layer is an id range
	// of d.Nodes().
	var prev []*task.DagNode
	for l := 0; l < f.Layers; l++ {
		width := stream.IntRange(f.MinWidth, f.MaxWidth)
		nodes := stream.Choose(k, width)
		start := d.Len()
		for i := 0; i < width; i++ {
			leaf, err := slab.Simple(vertexName(d.Len()), nodes[i], svc.Draw(stream))
			if err != nil {
				return nil, err
			}
			if _, err := d.AddTask(leaf); err != nil {
				return nil, err
			}
		}
		layer := d.Nodes()[start:]
		for _, n := range layer {
			if prev == nil {
				continue
			}
			// Guarantee connectivity: one mandatory predecessor, then the
			// rest by independent coin flips.
			must := stream.IntN(len(prev))
			for pi, p := range prev {
				if pi == must || stream.Float64() < f.EdgeProb {
					if err := d.AddEdge(p, n); err != nil {
						return nil, err
					}
				}
			}
		}
		prev = layer
	}
	return d, nil
}

// ExpectedWork implements DagFactory.
func (f LayeredDag) ExpectedWork(meanExec float64) float64 {
	return float64(f.Layers) * float64(f.MinWidth+f.MaxWidth) / 2 * meanExec
}

// Validate implements DagFactory.
func (f LayeredDag) Validate(k int) error {
	if f.Layers < 1 {
		return fmt.Errorf("%w: LayeredDag needs >= 1 layer, got %d", ErrBadSpec, f.Layers)
	}
	if f.MinWidth < 1 || f.MaxWidth < f.MinWidth {
		return fmt.Errorf("%w: LayeredDag width range [%d, %d]", ErrBadSpec, f.MinWidth, f.MaxWidth)
	}
	if f.MaxWidth > k {
		return fmt.Errorf("%w: layer width %d needs %d distinct nodes but k = %d",
			ErrBadSpec, f.MaxWidth, f.MaxWidth, k)
	}
	if f.EdgeProb < 0 || f.EdgeProb > 1 {
		return fmt.Errorf("%w: LayeredDag edge probability %v", ErrBadSpec, f.EdgeProb)
	}
	return nil
}

// Name implements DagFactory.
func (f LayeredDag) Name() string {
	return fmt.Sprintf("layered%d-w%d-%d-p%g", f.Layers, f.MinWidth, f.MaxWidth, f.EdgeProb)
}

// ForkJoinDag builds the Figure 14 fork-join pipeline as a DAG — Stages
// alternating single/parallel stages with complete bipartite wiring
// between consecutive stages — and then adds skip edges: each vertex pair
// two stages apart is connected with probability CrossProb. Skip edges
// break the series-parallel structure, so the decomposition's cluster
// rule (not just the tree reduction) is exercised under load.
type ForkJoinDag struct {
	Stages    int     // number of stages (>= 1); odd 0-based stages fan out
	Fanout    int     // vertices per parallel stage
	CrossProb float64 // probability of each stage-skipping edge, in [0, 1]
}

// NewDag implements DagFactory.
func (f ForkJoinDag) NewDag(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Dag, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	d := slab.Dag("")
	d.Grow(f.stageStart(f.Stages), f.maxEdges())
	for i := 0; i < f.Stages; i++ {
		nodes := stream.Choose(k, f.width(i))
		for _, nd := range nodes {
			leaf, err := slab.Simple(vertexName(d.Len()), nd, svc.Draw(stream))
			if err != nil {
				return nil, err
			}
			if _, err := d.AddTask(leaf); err != nil {
				return nil, err
			}
		}
		if i > 0 {
			for _, p := range f.stage(d, i-1) {
				for _, n := range f.stage(d, i) {
					if err := d.AddEdge(p, n); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for i := 0; i+2 < f.Stages; i++ {
		for _, p := range f.stage(d, i) {
			for _, n := range f.stage(d, i+2) {
				if stream.Float64() < f.CrossProb {
					if err := d.AddEdge(p, n); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return d, nil
}

// stageStart returns the id of the first vertex of stage i. Odd stages
// fan out, mirroring SerialParallel's alternation, so the stages before i
// are i/2 parallel stages of Fanout vertices and single vertices
// otherwise. stageStart(Stages) is the vertex count.
func (f ForkJoinDag) stageStart(i int) int { return i - i/2 + i/2*f.Fanout }

// width returns the number of vertices in stage i.
func (f ForkJoinDag) width(i int) int { return f.stageStart(i+1) - f.stageStart(i) }

// stage returns the vertices of stage i of a DAG under construction;
// vertices are added stage by stage, so every stage is an id range.
func (f ForkJoinDag) stage(d *task.Dag, i int) []*task.DagNode {
	return d.Nodes()[f.stageStart(i):f.stageStart(i+1)]
}

// maxEdges returns the edge count with every skip edge present.
func (f ForkJoinDag) maxEdges() int {
	n := 0
	for i := 1; i < f.Stages; i++ {
		n += f.width(i-1) * f.width(i)
		if i >= 2 {
			n += f.width(i-2) * f.width(i)
		}
	}
	return n
}

// ExpectedWork implements DagFactory.
func (f ForkJoinDag) ExpectedWork(meanExec float64) float64 {
	return SerialParallel{Stages: f.Stages, Fanout: f.Fanout}.ExpectedWork(meanExec)
}

// Validate implements DagFactory.
func (f ForkJoinDag) Validate(k int) error {
	if f.Stages < 1 {
		return fmt.Errorf("%w: ForkJoinDag needs >= 1 stage, got %d", ErrBadSpec, f.Stages)
	}
	if f.Stages > 1 && f.Fanout < 1 {
		return fmt.Errorf("%w: ForkJoinDag fanout %d", ErrBadSpec, f.Fanout)
	}
	if f.Stages > 1 && f.Fanout > k {
		return fmt.Errorf("%w: fanout %d needs %d distinct nodes but k = %d",
			ErrBadSpec, f.Fanout, f.Fanout, k)
	}
	if f.CrossProb < 0 || f.CrossProb > 1 {
		return fmt.Errorf("%w: ForkJoinDag cross probability %v", ErrBadSpec, f.CrossProb)
	}
	return nil
}

// Name implements DagFactory.
func (f ForkJoinDag) Name() string {
	return fmt.Sprintf("forkjoin%d-fan%d-x%g", f.Stages, f.Fanout, f.CrossProb)
}
