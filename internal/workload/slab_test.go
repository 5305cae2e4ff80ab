package workload

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// slabParitySpecs returns one spec per shipped global factory, tree and
// DAG, on a system large enough for every shape.
func slabParitySpecs() []Spec {
	trees := []Factory{
		FixedParallel{N: 4},
		UniformParallel{Min: 2, Max: 6},
		SerialParallel{Stages: 5, Fanout: 4},
		NetworkPipeline{Stages: 5, Fanout: 4, NetNodes: 2, HopMean: 0.5},
	}
	dags := []DagFactory{
		LayeredDag{Layers: 4, MinWidth: 1, MaxWidth: 4, EdgeProb: 0.3},
		ForkJoinDag{Stages: 5, Fanout: 3, CrossProb: 0.3},
		ConditionalDag{Stages: 5, Branches: 3, Width: 2},
		ConditionalDag{Stages: 3, Branches: 2, Width: 4, Probs: []float64{0.7, 0.3},
			RelayDist: Deterministic{}, BranchDist: ErlangK{K: 2}},
	}
	var specs []Spec
	for _, f := range trees {
		s := Baseline(f)
		s.K = 8
		specs = append(specs, s)
	}
	for _, f := range dags {
		s := Baseline(nil)
		s.K = 8
		s.DagFactory = f
		specs = append(specs, s)
	}
	return specs
}

// drawTasks builds n locals and n globals from a stream seeded with seed,
// taking the specs in turn, drawing tasks and DAGs from slab, and renders
// every task with its deadlines and predicted execution times. With
// recycle set, each task and DAG goes back to the slab once rendered, so
// later draws reuse it, whichever spec drew it. The last line is the
// stream's next draw, so the construction paths must also consume the
// stream alike.
func drawTasks(t *testing.T, specs []Spec, seed uint64, n int, slab *task.Slab, recycle bool) []string {
	t.Helper()
	stream := rng.NewStream(seed)
	var out []string
	leaf := func(x *task.Task) string {
		return fmt.Sprintf("%s dl=%v vdl=%v pex=%v fin=%v", x, x.RealDeadline, x.VirtualDeadline, x.Pex, x.Finish)
	}
	for i := 0; i < n; i++ {
		spec := specs[i%len(specs)]
		l := spec.NewLocal(stream, slab, i%spec.K, 0)
		out = append(out, leaf(l))
		if recycle {
			slab.Reclaim(l)
		}
		if spec.DagFactory != nil {
			d, err := spec.NewGlobalDag(stream, slab, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s dl=%v", d, d.Root().RealDeadline))
			for _, v := range d.Nodes() {
				out = append(out, leaf(v.Task))
			}
			if recycle {
				slab.ReclaimDag(d)
			}
			continue
		}
		g, err := spec.NewGlobal(stream, slab, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s dl=%v", g, g.RealDeadline))
		for _, x := range g.Leaves() {
			out = append(out, leaf(x))
		}
		if recycle {
			slab.Reclaim(g)
		}
	}
	return append(out, fmt.Sprint(stream.Float64()))
}

// FuzzSlabParity pins slab and heap task construction together: every
// shipped factory, built from identically seeded streams with a nil slab,
// through a task.Slab, and through a slab that takes every task and DAG
// back once it is rendered, yields the same tasks, deadlines and
// predicted execution times, and leaves the stream in the same state.
// Enough tasks are drawn to cross slab chunk boundaries. A conditional
// DAG factory takes turns with a second conditional shape drawn from the
// seed, so recycled conditional templates and vertex names are reused
// across shapes.
func FuzzSlabParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(400), uint8(0))
	f.Add(uint64(7), uint8(3), uint16(120), uint8(1))
	f.Add(uint64(42), uint8(6), uint16(90), uint8(2))
	f.Add(uint64(99), uint8(7), uint16(300), uint8(1))
	f.Add(uint64(1<<40|3<<8|2<<4|6), uint8(6), uint16(200), uint8(0))
	specs := slabParitySpecs()
	estimators := []Estimator{Exact{}, Mean{}, Noisy{Factor: 2}}
	f.Fuzz(func(t *testing.T, seed uint64, which uint8, count uint16, est uint8) {
		spec := specs[int(which)%len(specs)]
		spec.Estimator = estimators[int(est)%len(estimators)]
		mix := []Spec{spec}
		if _, ok := spec.DagFactory.(ConditionalDag); ok {
			other := spec
			other.DagFactory = condShape(seed)
			mix = append(mix, other)
		}
		n := int(count % 512)
		heap := drawTasks(t, mix, seed, n, nil, false)
		for _, recycle := range []bool{false, true} {
			slabbed := drawTasks(t, mix, seed, n, new(task.Slab), recycle)
			if len(heap) != len(slabbed) {
				t.Fatalf("%s (recycled %t): %d lines on the heap, %d through a slab", spec.FactoryName(), recycle, len(heap), len(slabbed))
			}
			for i := range heap {
				if heap[i] != slabbed[i] {
					t.Fatalf("%s (recycled %t): line %d differs:\nheap: %s\nslab: %s", spec.FactoryName(), recycle, i, heap[i], slabbed[i])
				}
			}
		}
	})
}

// condShape derives a valid conditional DAG shape for an 8-node system
// from the low bits of seed: 1–8 stages, 1–4 branches, 1–8 members per
// gate, and skewed branch probabilities when bit 12 is set.
func condShape(seed uint64) ConditionalDag {
	f := ConditionalDag{
		Stages:   1 + int(seed&7),
		Branches: 1 + int(seed>>4&3),
		Width:    1 + int(seed>>8&7),
	}
	if seed>>12&1 == 1 {
		f.Probs = make([]float64, f.Branches)
		for i := range f.Probs {
			f.Probs[i] = float64(i+1) / float64(f.Branches*(f.Branches+1)/2)
		}
	}
	return f
}
