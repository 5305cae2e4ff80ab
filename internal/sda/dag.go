package sda

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/task"
)

// DAG-aware subtask deadline assignment.
//
// PlanDag extends the Figure 13 recursion from serial-parallel trees to
// precedence DAGs via series-parallel decomposition (task.Decompose): the
// exact tree recursion runs over the recovered structure — SSP for serial
// stages, PSP for parallel branches — so on any DAG obtained from a
// (canonical) serial-parallel tree the assignments are identical to
// Plan's. Only the irreducible residue, clusters, needs a generalized
// rule: the cluster's sibling groups (join-free antichains with equal
// in-cluster predecessor/successor sets) are treated as serial stages
// along the heaviest predicted path — the SSP budgets each group against
// the cluster deadline with the remaining per-vertex chain as downstream
// stages — and the PSP then fans the group's budget out among its
// members exactly as it would for a parallel composition.

// PlanDag applies the DAG-aware SDA algorithm offline, annotating every
// vertex task's Arrival, VirtualDeadline and PriorityBoost fields, plus
// the DAG's accounting root. ar is the release instant and deadline the
// end-to-end deadline. Like Plan, offline planning predicts release
// instants: a serial stage (or cluster group) is assumed to be released
// when the budget of the stage (the latest predecessor group) before it
// expires. The simulator's process manager performs the same
// decomposition online at actual release instants.
func PlanDag(d *task.Dag, ar simtime.Time, deadline simtime.Time, ssp SSP, psp PSP) error {
	if d == nil {
		return fmt.Errorf("sda: nil DAG")
	}
	if ssp == nil || psp == nil {
		return fmt.Errorf("sda: nil strategy")
	}
	st, err := d.Decompose() // validates the DAG
	if err != nil {
		return err
	}
	root := d.Root()
	root.Arrival = ar
	root.RealDeadline = deadline
	root.VirtualDeadline = deadline
	planStruct(st, ar, deadline, ssp, psp, false)
	return nil
}

// planStruct mirrors the tree recursion in plan() over the decomposition.
func planStruct(s *task.Structure, ar simtime.Time, deadline simtime.Time, ssp SSP, psp PSP, boost bool) {
	switch s.Kind {
	case task.StructLeaf:
		t := s.Node.Task
		t.Arrival = ar
		t.VirtualDeadline = deadline
		t.PriorityBoost = boost
	case task.StructSerial:
		release := ar
		for i := range s.Children {
			pexs := make([]simtime.Duration, 0, len(s.Children)-i)
			for _, rest := range s.Children[i:] {
				pexs = append(pexs, rest.PredictedCriticalPath())
			}
			dl := ssp.AssignSerial(release, deadline, pexs)
			planStruct(s.Children[i], release, dl, ssp, psp, boost)
			// Offline approximation: the next stage is released when this
			// stage's budget expires.
			release = dl
		}
	case task.StructParallel:
		a := psp.AssignParallel(ar, deadline, len(s.Children))
		for _, c := range s.Children {
			planStruct(c, ar, a.Virtual, ssp, psp, boost || a.Boost)
		}
	case task.StructCluster:
		planCluster(s, ar, deadline, ssp, psp, boost)
	}
}

// planCluster assigns deadlines inside an irreducible cluster. Groups are
// processed in topological order, so every in-cluster predecessor already
// carries its assigned virtual deadline when a group's release instant is
// estimated.
func planCluster(s *task.Structure, ar simtime.Time, deadline simtime.Time, ssp SSP, psp PSP, boost bool) {
	down := s.MemberDown()
	for _, g := range s.ClusterGroups() {
		// Offline release estimate: the group becomes executable when its
		// last in-cluster predecessor's budget expires (all members share
		// the same predecessor set). Source groups release with the
		// cluster.
		release := ar
		for _, p := range g[0].Preds() {
			if down[p.ID()] != task.NotMember {
				release = release.Max(p.Task.VirtualDeadline)
			}
		}
		pexs := ClusterStagePexs(nil, g, down)
		dl := ssp.AssignSerial(release, deadline, pexs)
		if len(g) > 1 {
			a := psp.AssignParallel(release, dl, len(g))
			for _, m := range g {
				t := m.Task
				t.Arrival = release
				t.VirtualDeadline = a.Virtual
				t.PriorityBoost = boost || a.Boost
			}
		} else {
			t := g[0].Task
			t.Arrival = release
			t.VirtualDeadline = dl
			t.PriorityBoost = boost
		}
	}
}

// ClusterStagePexs appends to dst the SSP strategy's view of the
// remaining "stages" when the sibling group g of a cluster becomes
// executable: the group's own predicted execution time (the max over
// members, as for a parallel composition) followed by the per-vertex chain
// of the heaviest predicted path through the group's in-cluster
// successors. down must be the cluster's Structure.MemberDown slice; its
// entries other than task.NotMember define cluster membership. Passing a
// reused dst makes the call allocation-free. The process manager uses the
// same view online, at actual release instants.
func ClusterStagePexs(dst []simtime.Duration, g []*task.DagNode, down []simtime.Duration) []simtime.Duration {
	var groupPex simtime.Duration
	for _, m := range g {
		groupPex = groupPex.Max(m.Task.Pex)
	}
	dst = append(dst, groupPex)
	// Follow the heaviest remaining chain: from the group, repeatedly step
	// to the in-cluster successor with the largest down-weight (smallest
	// id on ties, for determinism).
	var cur *task.DagNode
	for _, m := range g {
		cur = bestSucc(cur, m, down)
	}
	for cur != nil {
		dst = append(dst, cur.Task.Pex)
		cur = bestSucc(nil, cur, down)
	}
	return dst
}

// bestSucc returns whichever of best and the in-cluster successors of v
// has the heaviest remaining predicted path (smallest id on ties); best
// may be nil, and the result is nil if neither yields a candidate.
func bestSucc(best, v *task.DagNode, down []simtime.Duration) *task.DagNode {
	for _, s := range v.Succs() {
		w := down[s.ID()]
		if w == task.NotMember {
			continue
		}
		if best == nil || w > down[best.ID()] || (w == down[best.ID()] && s.ID() < best.ID()) {
			best = s
		}
	}
	return best
}
