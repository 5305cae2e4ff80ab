package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/task"
)

// NetworkPipeline models the paper's treatment of communication: "Even
// the communication network is considered as one or more of the resources
// and is subsumed as one or more of the processing nodes" (Section 3.2).
//
// It builds the Figure 14 serial-parallel pipeline but inserts an explicit
// network-hop subtask between consecutive stages. Hops execute at
// dedicated network nodes — the *last* NetNodes node IDs — while compute
// stages use the remaining nodes, so network contention is modelled with
// exactly the same queueing machinery as every other resource.
type NetworkPipeline struct {
	Stages   int     // compute stages (as SerialParallel)
	Fanout   int     // subtasks per parallel compute stage
	NetNodes int     // number of network resources (>= 1)
	HopMean  float64 // mean hop transmission time (in subtask-mean units)
}

var _ Factory = NetworkPipeline{}

// computeNodes returns how many nodes carry compute work for a k-node
// system.
func (f NetworkPipeline) computeNodes(k int) int { return k - f.NetNodes }

// parallelStage mirrors SerialParallel's alternation.
func (f NetworkPipeline) parallelStage(i int) bool { return i%2 == 1 }

// New implements Factory.
func (f NetworkPipeline) New(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Task, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	ck := f.computeNodes(k)
	if f.Stages == 1 {
		return slab.Simple("", stream.IntN(ck), svc.Draw(stream))
	}
	// Stages compute stages with a network hop between each pair.
	root := slab.Composite("", task.KindSerial, 2*f.Stages-1)
	for i := 0; i < f.Stages; i++ {
		if i > 0 {
			// Network hop between consecutive compute stages.
			hopNode := ck + stream.IntN(f.NetNodes)
			hop, err := slab.Simple("", hopNode, Service{Mean: f.HopMean}.Draw(stream))
			if err != nil {
				return nil, err
			}
			root.Children[2*i-1] = hop
		}
		var stage *task.Task
		var err error
		if f.parallelStage(i) {
			// Parallel compute groups draw from the compute nodes only (the
			// first ck node IDs); hops own the trailing network nodes.
			stage, err = parallelGroup(stream, slab, f.Fanout, ck, svc)
		} else {
			stage, err = slab.Simple("", stream.IntN(ck), svc.Draw(stream))
		}
		if err != nil {
			return nil, err
		}
		root.Children[2*i] = stage
	}
	return root, nil
}

// ExpectedWork implements Factory.
func (f NetworkPipeline) ExpectedWork(meanExec float64) float64 {
	compute := SerialParallel{Stages: f.Stages, Fanout: f.Fanout}.ExpectedWork(meanExec)
	hops := float64(float64(f.Stages-1) * f.HopMean)
	return compute + hops
}

// Validate implements Factory.
func (f NetworkPipeline) Validate(k int) error {
	if f.Stages < 1 {
		return fmt.Errorf("%w: NetworkPipeline needs >= 1 stage", ErrBadSpec)
	}
	if f.NetNodes < 1 {
		return fmt.Errorf("%w: NetworkPipeline needs >= 1 network node", ErrBadSpec)
	}
	if f.HopMean <= 0 {
		return fmt.Errorf("%w: NetworkPipeline hop mean %v", ErrBadSpec, f.HopMean)
	}
	ck := f.computeNodes(k)
	if ck < 1 {
		return fmt.Errorf("%w: %d network nodes leave no compute nodes (k = %d)",
			ErrBadSpec, f.NetNodes, k)
	}
	if f.Stages > 1 && f.Fanout < 1 {
		return fmt.Errorf("%w: NetworkPipeline fanout %d", ErrBadSpec, f.Fanout)
	}
	// A single-stage pipeline has no parallel stage (stage 0 is serial), so
	// the fanout never materialises and must not constrain the node count.
	if f.Stages > 1 && f.Fanout > ck {
		return fmt.Errorf("%w: fanout %d needs %d distinct compute nodes but only %d remain",
			ErrBadSpec, f.Fanout, f.Fanout, ck)
	}
	return nil
}

// Name implements Factory.
func (f NetworkPipeline) Name() string {
	return fmt.Sprintf("net%d-serial%d-fan%d", f.NetNodes, f.Stages, f.Fanout)
}
