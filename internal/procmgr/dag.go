package procmgr

import (
	"fmt"

	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Online execution of precedence-DAG global tasks.
//
// SubmitDag is SubmitGlobal for DAGs: the manager decomposes the DAG into
// its series-parallel structure (task.Decompose) once at submission and
// then runs the tree path's run over that structure — the same ctrl slab,
// pool, releases, completions, resubmissions and abort — so a serial
// stage's deadline is recomputed by the SSP at the instant the stage
// actually becomes executable and a parallel composition is fanned out by
// the PSP once on release. What only a DAG has lives here: inside an
// irreducible cluster a sibling group (members sharing one in-cluster
// predecessor/successor set) is released when its last predecessor
// finishes; because group mates share their predecessors, the whole group
// becomes ready atomically in a single completion callback. Aborting a DAG
// run also marks its not-yet-released vertices aborted without recording
// them (see run.abortAll). RecordGlobal, which carries the DAG, is the
// run's final callback: right after it returns, the DAG, its accounting
// root and its vertex tasks go back to the manager's slab, as a tree does
// (see Recorder), and the decomposition goes with them.

// SubmitDag submits a global task expressed as a precedence DAG. The
// accounting root's RealDeadline must be set (d.Root().RealDeadline); the
// manager decomposes the DAG online and releases each vertex as soon as
// all its predecessors have finished.
func (m *Manager) SubmitDag(d *task.Dag) error {
	if d == nil {
		return fmt.Errorf("procmgr: nil DAG task")
	}
	st, err := d.Decompose() // validates the DAG
	if err != nil {
		return err
	}
	root := d.Root()
	if root.RealDeadline.IsNever() {
		return fmt.Errorf("%w: %q", ErrNoDeadline, d.Name)
	}
	for _, n := range d.Nodes() {
		if n.Task.Node < 0 || n.Task.Node >= len(m.nodes) {
			return fmt.Errorf("%w: %q at node %d", ErrBadNode, n.Task.Name, n.Task.Node)
		}
	}

	r := m.acquireRun(root, d, ctrlCount(st))
	if !m.arm(r) {
		return nil
	}
	now := m.eng.Now()
	root.Arrival = now
	root.VirtualDeadline = root.RealDeadline
	if m.lis != nil {
		m.lis.RecordRelease(root, root, root.RealDeadline)
		m.lis.RecordDagSubmit(d, root)
	}
	r.release(r.newCtrl(nil, 0, nil, st), now, root.RealDeadline, root.RealDeadline, false, nil)
	return nil
}

// ctrlCount returns the number of control blocks a run of the
// decomposition s needs: one per structure node plus one per cluster
// member.
func ctrlCount(s *task.Structure) int {
	n := 1 + len(s.Members)
	for _, c := range s.Children {
		n += ctrlCount(c)
	}
	return n
}

// releaseCluster initialises an irreducible cluster's bookkeeping and
// releases its source groups (those with no in-cluster predecessor).
func (r *run) releaseCluster(c *ctrl, now simtime.Time, pred *task.Task) {
	st := c.s
	c.down = st.MemberDown()
	c.groups = st.ClusterGroups()
	for gi, g := range c.groups {
		for _, mb := range g {
			r.groupOf[mb.ID()] = gi
		}
	}
	at := len(r.pending)
	r.pending = r.pending[:at+len(c.groups)]
	c.pending = r.pending[at:len(r.pending):len(r.pending)]
	for gi, g := range c.groups {
		// All group members share one predecessor set; count its in-cluster
		// part off the first member.
		c.pending[gi] = 0
		for _, p := range g[0].Preds() {
			if c.down[p.ID()] != task.NotMember {
				c.pending[gi]++
			}
		}
	}
	c.remaining = len(st.Members)
	for gi := range c.groups {
		if c.pending[gi] == 0 {
			r.releaseGroup(c, gi, now, pred)
		}
	}
}

// releaseGroup makes the gi-th sibling group of cluster c executable at
// instant now. A submission earlier in the group can end the run (a
// hopeless local-abort resubmission aborts it); the rest of the group is
// then never released, as the rest of a tree's fan-out is not.
func (r *run) releaseGroup(c *ctrl, gi int, now simtime.Time, pred *task.Task) {
	if r.over {
		return
	}
	vdl, budget, boost := r.groupDeadline(c, gi, now)
	for _, mb := range c.groups[gi] {
		if r.over {
			return
		}
		mc := r.newCtrl(c, 0, mb.Task, nil)
		mc.member = mb
		r.release(mc, now, vdl, budget, boost, pred)
	}
}

// groupDeadline budgets the gi-th sibling group of cluster c at instant
// now: the SSP budgets the group against the cluster deadline with the
// heaviest remaining chain as downstream stages, and the PSP fans the
// group budget out among the members when there is more than one. It
// returns each member's virtual deadline and boost, and the budget that
// deadline was decomposed from.
func (r *run) groupDeadline(c *ctrl, gi int, now simtime.Time) (vdl, budget simtime.Time, boost bool) {
	g := c.groups[gi]
	pexs := sda.ClusterStagePexs(r.m.pexScratch(), g, c.down)
	dl := r.m.ssp.AssignSerial(now, c.vdl, pexs)
	r.m.putPex(pexs)
	if len(g) > 1 {
		a := r.m.psp.AssignParallel(now, dl, len(g))
		return a.Virtual, dl, c.boost || a.Boost
	}
	return dl, c.vdl, c.boost
}

// memberFinished records completion of cluster vertex c: successor groups
// whose last in-cluster predecessor just finished are released, and the
// cluster itself completes when its final member does.
func (r *run) memberFinished(c *ctrl, at simtime.Time) {
	cl, mb := c.parent, c.member
	cl.remaining--
	// A finished vertex is one predecessor of every distinct group its
	// successors belong to; decrement each such group exactly once (a group
	// may hold several successors of mb).
	seen := r.seenBuf[:0]
	for _, s := range mb.Succs() {
		if r.over {
			// A release ended the run, and its DAG may be reclaimed.
			r.seenBuf = seen[:0]
			return
		}
		if cl.down[s.ID()] == task.NotMember {
			continue
		}
		gi := r.groupOf[s.ID()]
		dup := false
		for _, x := range seen {
			if x == gi {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, gi)
		cl.pending[gi]--
		if cl.pending[gi] == 0 {
			r.releaseGroup(cl, gi, at, mb.Task)
		}
	}
	r.seenBuf = seen[:0]
	if cl.remaining == 0 {
		r.finished(cl, at, mb.Task)
	}
}
