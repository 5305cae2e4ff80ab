package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

func TestLayeredDagShape(t *testing.T) {
	f := LayeredDag{Layers: 4, MinWidth: 1, MaxWidth: 3, EdgeProb: 0.4}
	s := rng.NewStream(7)
	svc := Service{Dist: Exponential{}, Mean: 1}
	for trial := 0; trial < 50; trial++ {
		d, err := f.NewDag(s, nil, 5, svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: invalid DAG: %v", trial, err)
		}
		if got := d.Depth(); got != f.Layers {
			t.Fatalf("trial %d: depth = %d, want %d (every layer chained)", trial, got, f.Layers)
		}
		if got := d.Width(); got > f.MaxWidth {
			t.Fatalf("trial %d: width = %d > max %d", trial, got, f.MaxWidth)
		}
		if n := d.Len(); n < f.Layers*f.MinWidth || n > f.Layers*f.MaxWidth {
			t.Fatalf("trial %d: %d vertices outside [%d, %d]", trial, n,
				f.Layers*f.MinWidth, f.Layers*f.MaxWidth)
		}
		// Exactly the first layer are sources: every later vertex got a
		// mandatory predecessor.
		if got := len(d.Sources()); got > f.MaxWidth {
			t.Fatalf("trial %d: %d sources exceed one layer", trial, got)
		}
	}
}

func TestLayeredDagDistinctNodesPerLayer(t *testing.T) {
	f := LayeredDag{Layers: 3, MinWidth: 4, MaxWidth: 4, EdgeProb: 1}
	s := rng.NewStream(11)
	svc := Service{Dist: Deterministic{}, Mean: 1}
	d, err := f.NewDag(s, nil, 4, svc)
	if err != nil {
		t.Fatal(err)
	}
	// With full width 4 on 4 nodes, each layer must use all 4 distinct
	// nodes; EdgeProb 1 wires complete bipartite layers.
	levelNodes := map[int]map[int]bool{}
	for _, n := range d.Nodes() {
		depth := 0
		for p := n; len(p.Preds()) > 0; p = p.Preds()[0] {
			depth++
		}
		if levelNodes[depth] == nil {
			levelNodes[depth] = map[int]bool{}
		}
		if levelNodes[depth][n.Task.Node] {
			t.Fatalf("layer %d reuses node %d", depth, n.Task.Node)
		}
		levelNodes[depth][n.Task.Node] = true
	}
}

func TestLayeredDagValidate(t *testing.T) {
	cases := []LayeredDag{
		{Layers: 0, MinWidth: 1, MaxWidth: 1},
		{Layers: 1, MinWidth: 0, MaxWidth: 1},
		{Layers: 1, MinWidth: 3, MaxWidth: 2},
		{Layers: 1, MinWidth: 1, MaxWidth: 9}, // exceeds k
		{Layers: 1, MinWidth: 1, MaxWidth: 1, EdgeProb: 1.5},
		{Layers: 1, MinWidth: 1, MaxWidth: 1, EdgeProb: -0.1},
	}
	for _, f := range cases {
		if err := f.Validate(6); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%+v.Validate(6) = %v, want ErrBadSpec", f, err)
		}
	}
	if err := (LayeredDag{Layers: 2, MinWidth: 1, MaxWidth: 6}).Validate(6); err != nil {
		t.Errorf("valid factory rejected: %v", err)
	}
}

func TestForkJoinDagReducesToTreeWithoutCrossEdges(t *testing.T) {
	f := ForkJoinDag{Stages: 5, Fanout: 3, CrossProb: 0}
	s := rng.NewStream(3)
	svc := Service{Dist: Exponential{}, Mean: 1}
	d, err := f.NewDag(s, nil, 6, svc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Len(), 3+2*3; got != want {
		t.Fatalf("vertices = %d, want %d", got, want)
	}
	st, err := d.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	// Without skip edges the pipeline is series-parallel: the
	// decomposition must contain no cluster.
	var hasCluster func(*task.Structure) bool
	hasCluster = func(s *task.Structure) bool {
		if s.Kind == task.StructCluster {
			return true
		}
		for _, c := range s.Children {
			if hasCluster(c) {
				return true
			}
		}
		return false
	}
	if hasCluster(st) {
		t.Error("cross-free fork-join decomposed to a cluster")
	}
}

func TestForkJoinDagCrossEdgesBreakSeriesParallel(t *testing.T) {
	f := ForkJoinDag{Stages: 3, Fanout: 2, CrossProb: 1}
	s := rng.NewStream(5)
	svc := Service{Dist: Deterministic{}, Mean: 1}
	d, err := f.NewDag(s, nil, 4, svc)
	if err != nil {
		t.Fatal(err)
	}
	// Stages 1-2-1; CrossProb 1 adds the skip edge v0 -> v3.
	if got, want := d.EdgeCount(), 2+2+1; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	var hasCluster func(*task.Structure) bool
	hasCluster = func(s *task.Structure) bool {
		if s.Kind == task.StructCluster {
			return true
		}
		for _, c := range s.Children {
			if hasCluster(c) {
				return true
			}
		}
		return false
	}
	if !hasCluster(st) {
		t.Error("skip edge did not produce an irreducible cluster")
	}
}

func TestForkJoinDagValidate(t *testing.T) {
	for _, f := range []ForkJoinDag{
		{Stages: 0, Fanout: 1},
		{Stages: 3, Fanout: 0},
		{Stages: 3, Fanout: 9},
		{Stages: 3, Fanout: 2, CrossProb: 2},
	} {
		if err := f.Validate(6); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%+v.Validate(6) = %v, want ErrBadSpec", f, err)
		}
	}
	// Regression (same class as the NetworkPipeline fanout bug): a
	// single-stage shape has no parallel stage, so the fanout must not be
	// validated against k.
	if err := (ForkJoinDag{Stages: 1, Fanout: 99}).Validate(2); err != nil {
		t.Errorf("single-stage fanout constrained: %v", err)
	}
}

func TestNewGlobalDagDeadlineAndPex(t *testing.T) {
	spec := Baseline(nil)
	spec.Factory = nil
	spec.DagFactory = ForkJoinDag{Stages: 3, Fanout: 2, CrossProb: 0.5}
	spec.Estimator = Mean{}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(99)
	const ar = simtime.Time(17)
	for trial := 0; trial < 20; trial++ {
		d, err := spec.NewGlobalDag(s, nil, ar)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range d.Nodes() {
			if n.Task.Pex != simtime.Duration(spec.MeanSubtaskExec) {
				t.Fatalf("pex = %v, want mean %v", n.Task.Pex, spec.MeanSubtaskExec)
			}
		}
		slack := d.Root().RealDeadline.Sub(ar) - d.CriticalPath()
		if float64(slack) < spec.SlackMin-1e-9 || float64(slack) > spec.SlackMax+1e-9 {
			t.Fatalf("slack %v outside [%v, %v]", slack, spec.SlackMin, spec.SlackMax)
		}
	}
}

func TestSpecRejectsBothFactories(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	spec.DagFactory = LayeredDag{Layers: 2, MinWidth: 1, MaxWidth: 2}
	if err := spec.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Validate = %v, want ErrBadSpec", err)
	}
}

func TestFactoryNameHelper(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	if got := spec.FactoryName(); got != "parallel-4" {
		t.Errorf("FactoryName = %q", got)
	}
	spec.Factory = nil
	spec.DagFactory = LayeredDag{Layers: 2, MinWidth: 1, MaxWidth: 2, EdgeProb: 0.3}
	if got := spec.FactoryName(); !strings.HasPrefix(got, "layered2-") {
		t.Errorf("FactoryName = %q", got)
	}
	spec.DagFactory = nil
	spec.FracLocal = 1
	if got := spec.FactoryName(); got != "none" {
		t.Errorf("FactoryName = %q", got)
	}
}

func TestSynthesizeRejectsDagWorkload(t *testing.T) {
	spec := Baseline(nil)
	spec.DagFactory = ForkJoinDag{Stages: 3, Fanout: 2}
	if _, err := Synthesize(spec, 1, 100); !errors.Is(err, ErrBadTrace) {
		t.Errorf("Synthesize = %v, want ErrBadTrace", err)
	}
}

func TestDriverDagWorkload(t *testing.T) {
	spec := Baseline(nil)
	spec.Factory = nil
	spec.DagFactory = ForkJoinDag{Stages: 3, Fanout: 2, CrossProb: 0.5}
	eng, _, d, rec := driverRig(t, spec, 1234)
	if err := d.Start(2000); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.Globals() == 0 {
		t.Fatal("no global DAG tasks generated")
	}
	if rec.globals != d.Globals() {
		t.Errorf("recorded %d globals, generated %d", rec.globals, d.Globals())
	}
	// Every DAG has 3 + 2·1 = 5 vertices, but aborted runs may record
	// fewer; the stream still has to be substantial.
	if rec.subtasks < rec.globals {
		t.Errorf("only %d subtask records for %d globals", rec.subtasks, rec.globals)
	}
}

func TestDriverDagDeterminism(t *testing.T) {
	runOnce := func() (int64, int64, int64) {
		spec := Baseline(nil)
		spec.DagFactory = LayeredDag{Layers: 3, MinWidth: 1, MaxWidth: 3, EdgeProb: 0.4}
		eng, _, d, rec := driverRig(t, spec, 777)
		if err := d.Start(1000); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return d.Globals(), rec.subtasks, rec.globalMiss
	}
	g1, s1, m1 := runOnce()
	g2, s2, m2 := runOnce()
	if g1 != g2 || s1 != s2 || m1 != m2 {
		t.Errorf("runs differ: (%d %d %d) vs (%d %d %d)", g1, s1, m1, g2, s2, m2)
	}
}

func TestNetworkPipelineSingleStageFanout(t *testing.T) {
	// Regression: Stages == 1 has no parallel stage, yet Validate used to
	// reject Fanout > computeNodes and made single-stage load sweeps with
	// a shared fanout parameter impossible.
	f := NetworkPipeline{Stages: 1, Fanout: 9, NetNodes: 1, HopMean: 0.5}
	if err := f.Validate(3); err != nil {
		t.Errorf("single-stage pipeline rejected: %v", err)
	}
	// Multi-stage shapes still enforce the bound.
	f.Stages = 2
	if err := f.Validate(3); !errors.Is(err, ErrBadSpec) {
		t.Errorf("fanout 9 on 2 compute nodes accepted: %v", err)
	}
	// SerialParallel shares the rule.
	if err := (SerialParallel{Stages: 1, Fanout: 9}).Validate(6); err != nil {
		t.Errorf("single-stage SerialParallel rejected: %v", err)
	}
	if err := (SerialParallel{Stages: 2, Fanout: 9}).Validate(6); !errors.Is(err, ErrBadSpec) {
		t.Errorf("fanout 9 on 6 nodes accepted: %v", err)
	}
}

func TestNetworkPipelineNodePlacement(t *testing.T) {
	// Hops must execute on the trailing NetNodes node IDs and compute
	// subtasks strictly on the leading compute nodes, with parallel groups
	// at distinct nodes.
	f := NetworkPipeline{Stages: 5, Fanout: 3, NetNodes: 2, HopMean: 0.5}
	const k = 6
	ck := k - f.NetNodes
	s := rng.NewStream(21)
	svc := Service{Dist: Exponential{}, Mean: 1}
	for trial := 0; trial < 30; trial++ {
		root, err := f.New(s, nil, k, svc)
		if err != nil {
			t.Fatal(err)
		}
		stages := root.Children
		for i, stage := range stages {
			hop := i%2 == 1 // stages alternate compute, hop, compute, ...
			if hop {
				if stage.Node < ck {
					t.Fatalf("trial %d: hop at compute node %d", trial, stage.Node)
				}
				continue
			}
			seen := map[int]bool{}
			stage.Walk(func(n *task.Task) {
				if !n.IsSimple() {
					return
				}
				if n.Node >= ck {
					t.Fatalf("trial %d: compute subtask at network node %d", trial, n.Node)
				}
				if len(stage.Children) > 0 && seen[n.Node] {
					t.Fatalf("trial %d: parallel group reuses node %d", trial, n.Node)
				}
				seen[n.Node] = true
			})
		}
	}
}

// TestVertexNamesMatchFormat pins the strconv-built vertex names to the
// fmt formats they replaced, inside and beyond the cached range.
func TestVertexNamesMatchFormat(t *testing.T) {
	for id := 0; id < 200; id++ {
		if got, want := vertexName(id), fmt.Sprintf("v%d", id); got != want {
			t.Fatalf("vertexName(%d) = %q, want %q", id, got, want)
		}
	}
	for st := 0; st < 12; st++ {
		for g := 0; g < 12; g++ {
			if got, want := indexedName("r", st), fmt.Sprintf("r%d", st); got != want {
				t.Fatalf("indexedName = %q, want %q", got, want)
			}
			if got, want := indexedName("g", st, g), fmt.Sprintf("g%d_%d", st, g); got != want {
				t.Fatalf("indexedName = %q, want %q", got, want)
			}
			if got, want := indexedName("m", st, g, 10+g), fmt.Sprintf("m%d_%d_%d", st, g, 10+g); got != want {
				t.Fatalf("indexedName = %q, want %q", got, want)
			}
		}
	}
}
