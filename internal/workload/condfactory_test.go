package workload

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// unitDet is the law every vertex takes exactly 1 under.
var unitDet = Service{Dist: Deterministic{}, Mean: 1}

func TestConditionalDagValidate(t *testing.T) {
	ok := ConditionalDag{Stages: 3, Branches: 2, Width: 2}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		f    ConditionalDag
		k    int
	}{
		{"no stages", ConditionalDag{Stages: 0, Branches: 2, Width: 1}, 4},
		{"no branches", ConditionalDag{Stages: 3, Branches: 0, Width: 1}, 4},
		{"no width", ConditionalDag{Stages: 3, Branches: 2, Width: 0}, 4},
		{"width over k", ConditionalDag{Stages: 3, Branches: 2, Width: 5}, 4},
		{"probs arity", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{1}}, 4},
		{"prob zero", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{0, 1}}, 4},
		{"prob negative", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{-0.5, 1.5}}, 4},
		{"prob above one", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{1.5, 0.5}}, 4},
		{"prob nan", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{math.NaN(), 0.5}}, 4},
		{"sum below one", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{0.3, 0.3}}, 4},
		{"sum above one", ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{0.8, 0.8}}, 4},
	}
	for _, tc := range cases {
		if err := tc.f.Validate(tc.k); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: Validate = %v, want ErrBadSpec", tc.name, err)
		}
	}
	// The probability-specific failures also expose the task-model errors.
	bad := ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{1.5, 0.5}}
	if err := bad.Validate(4); !errors.Is(err, task.ErrBranchProb) {
		t.Errorf("range error not wrapped: %v", err)
	}
	badSum := ConditionalDag{Stages: 3, Branches: 2, Width: 1, Probs: []float64{0.3, 0.3}}
	if err := badSum.Validate(4); !errors.Is(err, task.ErrBranchSum) {
		t.Errorf("sum error not wrapped: %v", err)
	}
	// Spec.Validate propagates factory rejection.
	spec := Baseline(nil)
	spec.Factory = nil
	spec.DagFactory = bad
	if err := spec.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Spec.Validate = %v, want ErrBadSpec", err)
	}
}

func TestConditionalDagTemplate(t *testing.T) {
	f := ConditionalDag{Stages: 3, Branches: 3, Width: 2, Probs: []float64{0.5, 0.25, 0.25}}
	stream := rng.NewSplitter(1).Stream()
	cd, err := f.Template(stream, nil, 6, unitDet)
	if err != nil {
		t.Fatalf("Template: %v", err)
	}
	if err := cd.Validate(); err != nil {
		t.Fatalf("template invalid: %v", err)
	}
	// 2 relays + 3 gates + 3*2 members = 11 vertices, one branch point.
	if got := cd.Dag().Len(); got != 11 {
		t.Errorf("template has %d vertices, want 11", got)
	}
	if cd.CondCount() != 1 {
		t.Errorf("CondCount = %d, want 1", cd.CondCount())
	}
	reals, err := cd.Realizations(0)
	if err != nil {
		t.Fatalf("Realizations: %v", err)
	}
	if len(reals) != 3 {
		t.Fatalf("%d realizations, want 3 (one per gate)", len(reals))
	}
	for _, r := range reals {
		// Every realization: 2 relays + 1 gate + 2 members = 5 vertices.
		if r.Dag.Len() != 5 {
			t.Errorf("realization has %d vertices, want 5", r.Dag.Len())
		}
		// Realizations are series-parallel: decomposition yields no cluster.
		st, err := r.Dag.Decompose()
		if err != nil {
			t.Fatalf("realization decompose: %v", err)
		}
		var hasCluster func(s *task.Structure) bool
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
			t.Errorf("realization is not series-parallel")
		}
	}
}

func TestConditionalDagNewDag(t *testing.T) {
	f := ConditionalDag{Stages: 5, Branches: 2, Width: 3}
	stream := rng.NewSplitter(2).Stream()
	for i := 0; i < 50; i++ {
		d, err := f.NewDag(stream, nil, 6, unitDet)
		if err != nil {
			t.Fatalf("NewDag: %v", err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("realized DAG invalid: %v", err)
		}
		// Realized volume is deterministic: 3 relays + 2 forks * (1+3).
		if got, want := d.Len(), 11; got != want {
			t.Errorf("realized DAG has %d vertices, want %d", got, want)
		}
		// Parallel members must sit at distinct nodes.
		for _, n := range d.Nodes() {
			seen := map[int]bool{}
			for _, s := range n.Succs() {
				if len(n.Succs()) > 1 && seen[s.Task.Node] {
					t.Errorf("parallel members share node %d", s.Task.Node)
				}
				seen[s.Task.Node] = true
			}
		}
	}
	// ExpectedWork matches the deterministic realized vertex count.
	if got, want := f.ExpectedWork(1), 11.0; got != want {
		t.Errorf("ExpectedWork = %v, want %v", got, want)
	}
}

// TestConditionalDagGateFrequencies draws many realizations through the
// factory and checks each gate's activation frequency converges to its
// branch probability — the satellite convergence property at the factory
// layer. Deterministic seed, CI-safe tolerance.
func TestConditionalDagGateFrequencies(t *testing.T) {
	const n = 3000
	const tol = 0.03
	probs := []float64{0.6, 0.3, 0.1}
	f := ConditionalDag{Stages: 3, Branches: 3, Width: 1, Probs: probs}
	stream := rng.NewSplitter(11).Stream()
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		d, err := f.NewDag(stream, nil, 6, unitDet)
		if err != nil {
			t.Fatalf("NewDag: %v", err)
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

func TestConditionalDagDistAware(t *testing.T) {
	// Deterministic relays, exponential branch vertices: the two relay
	// vertices must take exactly the mean.
	f := ConditionalDag{Stages: 3, Branches: 2, Width: 1,
		RelayDist: Deterministic{}, BranchDist: Exponential{}}
	stream := rng.NewSplitter(3).Stream()
	d, err := f.NewDag(stream, nil, 4, Service{Mean: 2.0})
	if err != nil {
		t.Fatalf("NewDag: %v", err)
	}
	relays := 0
	for _, n := range d.Nodes() {
		if n.Task.Name == "r0" || n.Task.Name == "r2" {
			relays++
			if float64(n.Task.Exec) != 2.0 {
				t.Errorf("relay %s exec = %v, want deterministic 2", n.Task.Name, n.Task.Exec)
			}
		}
	}
	if relays != 2 {
		t.Errorf("found %d relays, want 2", relays)
	}
	// The spec path substitutes the per-role families too.
	spec := Baseline(nil)
	spec.Factory = nil
	spec.DagFactory = f
	spec.MeanSubtaskExec = 2.0
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec: %v", err)
	}
	g, err := spec.NewGlobalDag(rng.NewSplitter(4).Stream(), nil, 0)
	if err != nil {
		t.Fatalf("NewGlobalDag: %v", err)
	}
	for _, n := range g.Nodes() {
		if (n.Task.Name == "r0" || n.Task.Name == "r2") && float64(n.Task.Exec) != 2.0 {
			t.Errorf("spec path ignored RelayDist: %s exec = %v", n.Task.Name, n.Task.Exec)
		}
	}
}

func TestConditionalDagDeterministicStream(t *testing.T) {
	f := ConditionalDag{Stages: 5, Branches: 2, Width: 2}
	run := func() []string {
		stream := rng.NewSplitter(9).Stream()
		var out []string
		for i := 0; i < 10; i++ {
			d, err := f.NewDag(stream, nil, 6, Service{Dist: Exponential{}, Mean: 1})
			if err != nil {
				t.Fatalf("NewDag: %v", err)
			}
			out = append(out, d.String())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical streams", i)
		}
	}
}

// TestConditionalDagNamesConcurrent draws templates of several shapes,
// at and past the bounds of the shared name table, from concurrent
// goroutines as parallel replications do, and checks every vertex name
// against the stage-by-stage naming scheme.
func TestConditionalDagNamesConcurrent(t *testing.T) {
	shapes := []ConditionalDag{
		{Stages: 5, Branches: 3, Width: 2},
		{Stages: 3, Branches: 2, Width: 4},
		{Stages: 16, Branches: 8, Width: 16},
		{Stages: 17, Branches: 1, Width: 1},
		{Stages: 1, Branches: 9, Width: 9},
		{Stages: 3, Branches: 100, Width: 50},
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream, slab := rng.NewStream(uint64(g)), new(task.Slab)
			for i := range 20 {
				f := shapes[(g+i)%len(shapes)]
				cd, err := f.Template(stream, slab, 64, unitDet)
				if err != nil {
					t.Error(err)
					return
				}
				var want []string
				for st := 0; st < f.Stages; st++ {
					if st%2 == 0 {
						want = append(want, indexedName("r", st))
						continue
					}
					for b := 0; b < f.Branches; b++ {
						want = append(want, indexedName("g", st, b))
						for w := 0; w < f.Width; w++ {
							want = append(want, indexedName("m", st, b, w))
						}
					}
				}
				nodes := cd.Dag().Nodes()
				if len(nodes) != len(want) {
					t.Errorf("%s: %d vertices, want %d", f.Name(), len(nodes), len(want))
					return
				}
				for j, n := range nodes {
					if n.Task.Name != want[j] {
						t.Errorf("%s: vertex %d named %q, want %q", f.Name(), j, n.Task.Name, want[j])
						return
					}
				}
				slab.ReclaimCondDag(cd)
			}
		}()
	}
	wg.Wait()
}
