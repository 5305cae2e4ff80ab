package workload

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

func TestNetworkPipelineShape(t *testing.T) {
	f := NetworkPipeline{Stages: 5, Fanout: 3, NetNodes: 2, HopMean: 0.25}
	const k = 8 // 6 compute + 2 network
	stream := rng.NewStream(1)
	g, err := f.New(stream, nil, k, unitExp)
	if err != nil {
		t.Fatal(err)
	}
	// 5 compute stages + 4 hops = 9 serial children.
	if g.Kind != task.KindSerial || len(g.Children) != 9 {
		t.Fatalf("shape = %v/%d, want serial/9", g.Kind, len(g.Children))
	}
	for i, stage := range g.Children {
		isHop := i%2 == 1
		if isHop {
			if !stage.IsSimple() {
				t.Errorf("child %d should be a hop leaf", i)
				continue
			}
			if stage.Node < 6 || stage.Node >= 8 {
				t.Errorf("hop %d at node %d, want a network node (6 or 7)", i, stage.Node)
			}
			continue
		}
		// Compute stages alternate simple/parallel like SerialParallel.
		stage.Walk(func(n *task.Task) {
			if n.IsSimple() && n.Node >= 6 {
				t.Errorf("compute subtask placed on network node %d", n.Node)
			}
		})
	}
}

func TestNetworkPipelineExpectedWork(t *testing.T) {
	f := NetworkPipeline{Stages: 5, Fanout: 4, NetNodes: 2, HopMean: 0.25}
	// Compute work 11 + 4 hops x 0.25 = 12.
	if got := f.ExpectedWork(1.0); math.Abs(got-12) > 1e-12 {
		t.Errorf("ExpectedWork = %v, want 12", got)
	}
	stream := rng.NewStream(2)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g, err := f.New(stream, nil, 8, unitExp)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(g.TotalWork())
	}
	if got := sum / n; math.Abs(got-12) > 0.2 {
		t.Errorf("empirical work %v, want ~12", got)
	}
}

func TestNetworkPipelineValidation(t *testing.T) {
	bad := []NetworkPipeline{
		{Stages: 0, Fanout: 2, NetNodes: 1, HopMean: 0.5},
		{Stages: 5, Fanout: 2, NetNodes: 0, HopMean: 0.5},
		{Stages: 5, Fanout: 2, NetNodes: 1, HopMean: 0},
		{Stages: 5, Fanout: 2, NetNodes: 8, HopMean: 0.5}, // no compute nodes left
		{Stages: 5, Fanout: 7, NetNodes: 2, HopMean: 0.5}, // fanout > compute nodes
		{Stages: 5, Fanout: 0, NetNodes: 2, HopMean: 0.5},
	}
	for i, f := range bad {
		if err := f.Validate(8); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: err = %v, want ErrBadSpec", i, err)
		}
	}
	good := NetworkPipeline{Stages: 5, Fanout: 4, NetNodes: 2, HopMean: 0.25}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid pipeline rejected: %v", err)
	}
	if good.Name() != "net2-serial5-fan4" {
		t.Errorf("Name = %q", good.Name())
	}
}

func TestNetworkPipelineInSpec(t *testing.T) {
	spec := Baseline(NetworkPipeline{Stages: 5, Fanout: 4, NetNodes: 2, HopMean: 0.25})
	spec.K = 8
	spec.GlobalSlackMin, spec.GlobalSlackMax = 6.25, 25
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	stream := rng.NewStream(3)
	g, err := spec.NewGlobal(stream, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.CountSimple() != 11+4 {
		t.Errorf("subtasks = %d, want 15 (11 compute + 4 hops)", g.CountSimple())
	}
	// λ_global uses total work including hops.
	want := spec.Load * (1 - spec.FracLocal) * float64(spec.K) / 12.0
	if got := spec.GlobalRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("GlobalRate = %v, want %v", got, want)
	}
}
