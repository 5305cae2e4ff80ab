package workload

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

// drawPins are the digests of every global task TestGlobalDrawPins draws,
// one per factory over all service laws and estimators. A change to how
// the workload draws a global task — which RNG calls, in which order,
// how a service time or pex is derived — moves them. They are the same
// on every GOARCH: the Noisy estimator's log-uniform factor goes through
// portable.Exp, not math.Exp.
var drawPins = map[string]string{
	"parallel-4":          "fe1edeafed5bbe137d06310c",
	"parallel-u2-6":       "c222c3486d86ae4c8a8e5625",
	"serial5-fan4":        "36d7c316b7eaa92a6b6f6594",
	"net2-serial5-fan3":   "9e3f07c1f313bc5aef512675",
	"layered4-w1-4-p0.3":  "7745f2d65ae53a4df50bca72",
	"forkjoin5-fan3-x0.3": "54d0a80d1636749a217c1f25",
	"cond5-b3-w2":         "b794b0e662bd59237ced4144",
	"cond5-b2-w3":         "8f1b773f931e869e396def40",
	"cond3-b2-w2":         "3ba2aed940bda2253faeb7f9",
}

// pinFactories are the factories TestGlobalDrawPins draws from: every
// shipped tree and DAG factory, and the conditional DAG without and with
// per-role service families.
func pinFactories() []struct {
	tree Factory
	dag  DagFactory
} {
	type entry = struct {
		tree Factory
		dag  DagFactory
	}
	return []entry{
		{tree: FixedParallel{N: 4}},
		{tree: UniformParallel{Min: 2, Max: 6}},
		{tree: SerialParallel{Stages: 5, Fanout: 4}},
		{tree: NetworkPipeline{Stages: 5, Fanout: 3, NetNodes: 2, HopMean: 0.5}},
		{dag: LayeredDag{Layers: 4, MinWidth: 1, MaxWidth: 4, EdgeProb: 0.3}},
		{dag: ForkJoinDag{Stages: 5, Fanout: 3, CrossProb: 0.3}},
		{dag: ConditionalDag{Stages: 5, Branches: 3, Width: 2}},
		{dag: ConditionalDag{Stages: 5, Branches: 2, Width: 3, Probs: []float64{0.7, 0.3},
			RelayDist: Deterministic{}, BranchDist: HyperExp{CV2: 3}}},
		{dag: ConditionalDag{Stages: 3, Branches: 2, Width: 2, RelayDist: ErlangK{K: 2}}},
	}
}

// hashDuration writes a duration's exact bits.
func hashDuration(h hash.Hash, d simtime.Duration) {
	fmt.Fprintf(h, "%016x\n", math.Float64bits(float64(d)))
}

// TestGlobalDrawPins draws global tasks through Spec.NewGlobal and
// Spec.NewGlobalDag at fixed seeds for every factory, subtask service
// law and estimator, and digests each task's rendering, real deadline
// and every leaf's pex, then the stream's next draw, bit for bit.
func TestGlobalDrawPins(t *testing.T) {
	dists := []Dist{Exponential{}, Deterministic{}, ErlangK{K: 4}, HyperExp{CV2: 4}}
	ests := []Estimator{Exact{}, Mean{}, Noisy{Factor: 2}}
	for _, f := range pinFactories() {
		var name string
		h := sha256.New()
		for di, dist := range dists {
			for ei, est := range ests {
				// A fresh Spec for every law: the draw must not depend on
				// what an earlier Spec drew.
				spec := Baseline(f.tree)
				spec.DagFactory = f.dag
				spec.K = 8
				spec.MeanSubtaskExec = 1.5
				spec.SubtaskService = dist
				spec.Estimator = est
				name = spec.FactoryName()
				stream := rng.NewStream(uint64(1000 + 10*di + ei))
				for i := 0; i < 6; i++ {
					at := simtime.Time(float64(i) * 2.5)
					if spec.DagFactory != nil {
						d, err := spec.NewGlobalDag(stream, nil, at)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						fmt.Fprintln(h, d)
						hashDuration(h, simtime.Duration(d.Root().RealDeadline))
						for _, v := range d.Nodes() {
							hashDuration(h, v.Task.Pex)
						}
						continue
					}
					g, err := spec.NewGlobal(stream, nil, at)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					fmt.Fprintln(h, g)
					hashDuration(h, simtime.Duration(g.RealDeadline))
					g.Walk(func(x *task.Task) {
						if x.IsSimple() {
							hashDuration(h, x.Pex)
						}
					})
				}
				fmt.Fprintf(h, "next %016x\n", math.Float64bits(stream.Float64()))
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != drawPins[name] {
			t.Errorf("%s: draw digest %s, pinned %s", name, got, drawPins[name])
		}
	}
}
