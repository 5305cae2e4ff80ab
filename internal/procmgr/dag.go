package procmgr

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Online execution of precedence-DAG global tasks.
//
// SubmitDag is SubmitGlobal for DAGs: the manager decomposes the DAG into
// its series-parallel structure (task.Decompose) once at submission and
// then runs the same online protocol as the tree path over that structure —
// a serial stage's deadline is recomputed by the SSP at the instant the
// stage actually becomes executable, a parallel composition is fanned out
// by the PSP once on release. Inside an irreducible cluster a sibling
// group (members sharing one in-cluster predecessor/successor set) is
// released when its last predecessor finishes; because group mates share
// their predecessors, the whole group becomes ready atomically in a single
// completion callback. Deadline abortion cascades: aborting the run
// withdraws every live subtask and marks the not-yet-released successors
// aborted without recording them — exactly the tree semantics, where
// unreleased serial stages of an aborted task never reach the recorder.
//
// Like the tree path, the DAG path keeps its bookkeeping off the heap:
// dagRun records are pooled on the manager, their control blocks come
// from a slab sized to the decomposition at submission (so pointers stay
// stable), and cluster group bookkeeping lives in per-run slices indexed
// by vertex id. The DAG, its vertices and their tasks are never pooled:
// recorders, the oracle and spans key state by their identity.

// DagRecorder is an optional extension of Recorder. A recorder that also
// implements it is told about every DAG submission before the first
// release fires, with the DAG and its accounting root (the task pointer
// later passed to RecordGlobal and release hooks). The telemetry layer
// uses it to attach shape attributes (depth, width) to the global span.
type DagRecorder interface {
	RecordDagSubmit(d *task.Dag, root *task.Task)
}

// RecordDagSubmit forwards the submission to every member recorder that
// understands DAGs.
func (m multiRecorder) RecordDagSubmit(d *task.Dag, root *task.Task) {
	for _, r := range m {
		if dr, ok := r.(DagRecorder); ok {
			dr.RecordDagSubmit(d, root)
		}
	}
}

// DagOutcomeRecorder is an optional extension of Recorder. A recorder
// that also implements it is told when a DAG run ends — completion or
// abort — with the DAG, its accounting root and the miss verdict, right
// after the corresponding RecordGlobal. Unlike RecordGlobal it carries
// the DAG itself, so outcome consumers (the analytic oracle) can judge
// the response time against the DAG's true critical path rather than the
// synthetic root's weaker max-over-vertices view.
type DagOutcomeRecorder interface {
	RecordDagOutcome(d *task.Dag, root *task.Task, missed bool)
}

// RecordDagOutcome forwards the outcome to every member recorder that
// understands DAG outcomes.
func (m multiRecorder) RecordDagOutcome(d *task.Dag, root *task.Task, missed bool) {
	for _, r := range m {
		if dr, ok := r.(DagOutcomeRecorder); ok {
			dr.RecordDagOutcome(d, root, missed)
		}
	}
}

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

	if m.dagRec != nil {
		m.dagRec.RecordDagSubmit(d, root)
	}
	r := m.acquireDagRun(d, root, ctrlCount(st))
	if m.pmAbort {
		m.eng.SetDomain(des.DomainNone)
		ev, err := m.eng.AtCall(root.RealDeadline, dagDeadlineFired, r)
		if err != nil {
			// Born dead: deadline already passed.
			r.abortAll()
			return nil
		}
		r.timer = ev
	}
	now := m.eng.Now()
	root.Arrival = now
	root.VirtualDeadline = root.RealDeadline
	if m.onRel != nil {
		m.onRel(root, root, root.RealDeadline)
	}
	r.releaseStruct(r.newCtrl(dagCtrl{s: st}), now, root.RealDeadline, root.RealDeadline, false, nil)
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

// dagDeadlineFired is the pm-abort timer callback for DAG tasks.
func dagDeadlineFired(x any) { x.(*dagRun).abortAll() }

// dagRun tracks one in-flight DAG task. It mirrors run, including the
// pooling: see acquireDagRun and retire.
type dagRun struct {
	m       *Manager
	dag     *task.Dag
	root    *task.Task
	timer   des.Event
	live    liveSet
	over    bool
	reap    []*node.Item
	seenBuf []int
	ctrls   []dagCtrl // slab: one ctrl per structure node and cluster member

	// Cluster group bookkeeping. Clusters of one DAG have disjoint
	// members, so one slice indexed by vertex id serves them all; each
	// cluster's pending counts are carved from the pending arena.
	groupOf []int // per vertex id: the vertex's group within its cluster
	pending []int

	// releasing counts releaseGroup frames in progress. A submission
	// inside one can synchronously end the run (a hopeless local-abort
	// resubmission aborts it), after which the frame still submits the
	// group's remaining members; the run must not be recycled under it.
	releasing int
	// orphaned is set when a vertex was submitted after the run ended.
	// Its node will still call back into the run, so the run is never
	// recycled.
	orphaned bool
}

// acquireDagRun returns a run for d, recycled from the manager's pool
// when one is free, with its ctrl slab sized to ctrls so newCtrl never
// reallocates (pointer stability).
func (m *Manager) acquireDagRun(d *task.Dag, root *task.Task, ctrls int) *dagRun {
	var r *dagRun
	if k := len(m.dagPool); k > 0 {
		r = m.dagPool[k-1]
		m.dagPool[k-1] = nil
		m.dagPool = m.dagPool[:k-1]
	} else {
		r = &dagRun{m: m}
	}
	r.dag, r.root, r.over = d, root, false
	if cap(r.ctrls) < ctrls {
		r.ctrls = make([]dagCtrl, 0, ctrls)
	}
	r.ctrls = r.ctrls[:0]
	n := d.Len()
	if cap(r.groupOf) < n {
		r.groupOf = make([]int, n)
		r.pending = make([]int, 0, n)
	}
	r.groupOf = r.groupOf[:n]
	r.pending = r.pending[:0]
	return r
}

// retire recycles a finished or aborted run unless a releaseGroup frame
// is still running on it (that frame retires it on exit) or it has
// orphaned vertices. Callers must not touch the run afterwards except to
// unwind; the slab keeps its stale contents until the next acquire, so an
// unwinding frame never reads freed state.
func (r *dagRun) retire() {
	if r.releasing > 0 || r.orphaned {
		return
	}
	m := r.m
	r.dag, r.root = nil, nil
	r.timer = des.Event{}
	r.live = r.live[:0]
	r.reap = r.reap[:0]
	m.dagPool = append(m.dagPool, r)
}

// newCtrl places c in the run's slab and returns its stable address.
func (r *dagRun) newCtrl(c dagCtrl) *dagCtrl {
	if len(r.ctrls) == cap(r.ctrls) {
		// The slab is sized to the decomposition at submission and each
		// structure node and cluster member is released at most once;
		// overflow is a bug.
		panic("procmgr: DAG ctrl slab overflow")
	}
	c.run = r
	r.ctrls = append(r.ctrls, c)
	return &r.ctrls[len(r.ctrls)-1]
}

// dagCtrl is the control block for one node of the decomposition tree, or
// — when member is set — for a single vertex inside a cluster. Leaf ctrls
// carry the vertex task and implement node.Hooks, replacing the two
// closures the manager used to allocate per submitted item.
type dagCtrl struct {
	run       *dagRun
	s         *task.Structure
	t         *task.Task // set on leaf/member ctrls (the submitted vertex)
	parent    *dagCtrl
	stageIdx  int // index of this child within a serial parent
	remaining int // parallel: unfinished children; serial: current stage index

	// Runtime attributes of the released structure (the decomposition has
	// no task.Task to carry them, unlike the tree path).
	ar    simtime.Time
	vdl   simtime.Time
	boost bool

	// Cluster state (s.Kind == StructCluster).
	down       []simtime.Duration // Structure.MemberDown: per vertex id, task.NotMember outside
	groups     [][]*task.DagNode
	pending    []int // per group: unfinished in-cluster predecessors
	unfinished int   // members not yet finished

	// member is set on the per-vertex leaf ctrl inside a cluster; its
	// parent is then the cluster ctrl.
	member *task.DagNode
}

// releaseStruct makes the structure rooted at c executable at instant now
// with the given deadline budget and GF boost flag. parentBudget is the
// budget the assignment was decomposed from, passed to the release hook.
// pred is the task whose completion triggered the release (nil at
// submission); it threads through composite fan-outs so every vertex made
// executable by one completion carries the same causal origin.
func (r *dagRun) releaseStruct(c *dagCtrl, now simtime.Time, budget simtime.Time, parentBudget simtime.Time, boost bool, pred *task.Task) {
	if r.over {
		return
	}
	c.ar, c.vdl, c.boost = now, budget, boost
	switch c.s.Kind {
	case task.StructLeaf:
		t := c.s.Node.Task
		t.Arrival = now
		t.VirtualDeadline = budget
		t.PriorityBoost = boost
		if r.m.onRel != nil {
			r.m.onRel(t, r.root, parentBudget)
		}
		if pred != nil {
			r.m.cause("pred", pred, t, r.root)
		}
		r.submitDagLeaf(c, t)
	case task.StructSerial:
		c.remaining = 0
		r.releaseDagStage(c, now, pred)
	case task.StructParallel:
		c.remaining = len(c.s.Children)
		a := r.m.psp.AssignParallel(now, budget, len(c.s.Children))
		for i, child := range c.s.Children {
			cc := r.newCtrl(dagCtrl{s: child, parent: c, stageIdx: i})
			r.releaseStruct(cc, now, a.Virtual, budget, boost || a.Boost, pred)
		}
	case task.StructCluster:
		r.releaseCluster(c, now, pred)
	}
}

// releaseDagStage releases the next serial stage of c at instant now,
// recomputing the stage deadline with the SSP's view of the remaining
// stages — the same online recomputation the tree path performs. pred is
// the task whose completion made the stage executable.
func (r *dagRun) releaseDagStage(c *dagCtrl, now simtime.Time, pred *task.Task) {
	i := c.remaining
	pexs := r.m.pexScratch()
	for _, rest := range c.s.Children[i:] {
		pexs = append(pexs, rest.PredictedCriticalPath())
	}
	dl := r.m.ssp.AssignSerial(now, c.vdl, pexs)
	r.m.putPex(pexs)
	cc := r.newCtrl(dagCtrl{s: c.s.Children[i], parent: c, stageIdx: i})
	r.releaseStruct(cc, now, dl, c.vdl, c.boost, pred)
}

// releaseCluster initialises an irreducible cluster's bookkeeping and
// releases its source groups (those with no in-cluster predecessor).
func (r *dagRun) releaseCluster(c *dagCtrl, now simtime.Time, pred *task.Task) {
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
	c.unfinished = len(st.Members)
	for gi := range c.groups {
		if c.pending[gi] == 0 {
			r.releaseGroup(c, gi, now, pred)
		}
	}
}

// releaseGroup makes the gi-th sibling group of cluster c executable at
// instant now: the SSP budgets the group against the cluster deadline with
// the heaviest remaining chain as downstream stages, and the PSP fans the
// group budget out among the members when there is more than one.
func (r *dagRun) releaseGroup(c *dagCtrl, gi int, now simtime.Time, pred *task.Task) {
	if r.over {
		return
	}
	g := c.groups[gi]
	pexs := sda.ClusterStagePexs(r.m.pexScratch(), g, c.down)
	dl := r.m.ssp.AssignSerial(now, c.vdl, pexs)
	r.m.putPex(pexs)
	r.releasing++
	if len(g) > 1 {
		a := r.m.psp.AssignParallel(now, dl, len(g))
		for _, mb := range g {
			r.releaseMember(c, mb, now, a.Virtual, dl, c.boost || a.Boost, pred)
		}
	} else {
		r.releaseMember(c, g[0], now, dl, c.vdl, c.boost, pred)
	}
	r.releasing--
	if r.over {
		r.retire()
	}
}

// releaseMember submits one cluster vertex with a freshly assigned virtual
// deadline.
func (r *dagRun) releaseMember(c *dagCtrl, mb *task.DagNode, now, vdl, parentBudget simtime.Time, boost bool, pred *task.Task) {
	t := mb.Task
	t.Arrival = now
	t.VirtualDeadline = vdl
	t.PriorityBoost = boost
	if r.m.onRel != nil {
		r.m.onRel(t, r.root, parentBudget)
	}
	if pred != nil {
		r.m.cause("pred", pred, t, r.root)
	}
	r.submitDagLeaf(r.newCtrl(dagCtrl{parent: c, member: mb}), t)
}

// ItemDone implements node.Hooks: the vertex finished service.
func (c *dagCtrl) ItemDone(done *node.Item, at simtime.Time) {
	r := c.run
	t := c.t
	r.live.remove(done)
	r.m.nodes[t.Node].RecycleItem(done)
	r.m.rec.RecordSubtask(t, at.After(r.root.RealDeadline))
	r.leafFinished(c, t, at)
}

// ItemLocalAbort implements node.Hooks: the node discarded the vertex
// because its virtual deadline expired.
func (c *dagCtrl) ItemLocalAbort(ab *node.Item, at simtime.Time) {
	r := c.run
	r.live.remove(ab)
	r.resubmit(c, c.t, ab, at)
}

// submitDagLeaf sends a vertex subtask to its node.
func (r *dagRun) submitDagLeaf(c *dagCtrl, t *task.Task) {
	if r.over {
		r.orphaned = true
	}
	c.t = t
	nd := r.m.nodes[t.Node]
	it := nd.AcquireItem(t)
	it.Hooks = c
	r.live.add(it)
	if err := nd.Submit(it); err != nil {
		// Validated up front; a failure here is a bug in the manager.
		panic(fmt.Sprintf("procmgr: submit DAG leaf %q: %v", t.Name, err))
	}
}

// leafFinished propagates completion of a vertex upward.
func (r *dagRun) leafFinished(c *dagCtrl, t *task.Task, at simtime.Time) {
	if r.over {
		return
	}
	t.Finish = at
	if c.member != nil {
		r.memberFinished(c.parent, c.member, at)
		return
	}
	r.finishedStruct(c, at, t)
}

// memberFinished records completion of a cluster vertex: successor groups
// whose last in-cluster predecessor just finished are released, and the
// cluster itself completes when its final member does.
func (r *dagRun) memberFinished(cl *dagCtrl, mb *task.DagNode, at simtime.Time) {
	cl.unfinished--
	// A finished vertex is one predecessor of every distinct group its
	// successors belong to; decrement each such group exactly once (a group
	// may hold several successors of mb).
	seen := r.seenBuf[:0]
	for _, s := range mb.Succs() {
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
	if cl.unfinished == 0 {
		r.finishedStruct(cl, at, mb.Task)
	}
}

// finishedStruct propagates completion of the structure rooted at c
// upward, releasing the next serial stage where one exists. cause is the
// vertex task whose completion finished the structure; releases it
// unlocks carry it as their causal predecessor.
func (r *dagRun) finishedStruct(c *dagCtrl, at simtime.Time, cause *task.Task) {
	if r.over {
		return
	}
	p := c.parent
	if p == nil {
		r.complete(at)
		return
	}
	switch p.s.Kind {
	case task.StructSerial:
		next := c.stageIdx + 1
		if next < len(p.s.Children) {
			p.remaining = next
			r.releaseDagStage(p, at, cause)
			return
		}
		r.finishedStruct(p, at, cause)
	case task.StructParallel:
		p.remaining--
		if p.remaining == 0 {
			r.finishedStruct(p, at, cause)
		}
	}
}

// resubmit handles a local-scheduler abort of a vertex: recompute the
// virtual deadline from the remaining budget and try again, or abandon the
// whole DAG when the subtask has become hopeless.
func (r *dagRun) resubmit(c *dagCtrl, t *task.Task, it *node.Item, now simtime.Time) {
	if r.over {
		return
	}
	vdl, boost := r.reassign(c, now)
	if vdl.Before(now) {
		// The former trial consumed all the slack; give up on the DAG. The
		// aborted item is already out of the live set, so the cascade
		// cannot reach it; recycle it once the run is wound down.
		nd := r.m.nodes[t.Node]
		r.abortAll()
		nd.RecycleItem(it)
		return
	}
	t.VirtualDeadline = vdl
	t.PriorityBoost = boost
	if r.m.onRel != nil {
		budget := r.root.RealDeadline
		if c.parent != nil {
			budget = c.parent.vdl
		}
		r.m.onRel(t, r.root, budget)
	}
	r.live.add(it)
	if err := r.m.nodes[t.Node].Submit(it); err != nil {
		panic(fmt.Sprintf("procmgr: resubmit DAG leaf %q: %v", t.Name, err))
	}
}

// reassign recomputes the virtual deadline a vertex would receive if its
// enclosing structure decomposed its budget at instant now.
func (r *dagRun) reassign(c *dagCtrl, now simtime.Time) (simtime.Time, bool) {
	if c.member != nil {
		cl := c.parent
		g := cl.groups[r.groupOf[c.member.ID()]]
		pexs := sda.ClusterStagePexs(r.m.pexScratch(), g, cl.down)
		dl := r.m.ssp.AssignSerial(now, cl.vdl, pexs)
		r.m.putPex(pexs)
		if len(g) > 1 {
			a := r.m.psp.AssignParallel(now, dl, len(g))
			return a.Virtual, cl.boost || a.Boost
		}
		return dl, cl.boost
	}
	p := c.parent
	if p == nil {
		// A single-vertex DAG: its budget is the real deadline.
		return r.root.RealDeadline, c.boost
	}
	switch p.s.Kind {
	case task.StructParallel:
		a := r.m.psp.AssignParallel(now, p.vdl, len(p.s.Children))
		return a.Virtual, p.boost || a.Boost
	case task.StructSerial:
		i := c.stageIdx
		pexs := r.m.pexScratch()
		for _, rest := range p.s.Children[i:] {
			pexs = append(pexs, rest.PredictedCriticalPath())
		}
		dl := r.m.ssp.AssignSerial(now, p.vdl, pexs)
		r.m.putPex(pexs)
		return dl, p.boost
	default:
		return p.vdl, p.boost
	}
}

// complete closes out a successfully finished DAG run. The run is
// retired before the recorders fire; callers up the completion chain must
// not touch it afterwards.
func (r *dagRun) complete(at simtime.Time) {
	r.over = true
	m, d, root := r.m, r.dag, r.root
	root.Finish = at
	m.eng.Cancel(r.timer)
	r.retire()
	missed := at.After(root.RealDeadline)
	m.rec.RecordGlobal(root, missed)
	if dr := m.dagOutcome; dr != nil {
		dr.RecordDagOutcome(d, root, missed)
	}
}

// abortAll withdraws every outstanding vertex and abandons the run. The
// abort cascades to not-yet-released successors: they are marked aborted
// but never recorded, mirroring the tree path where unreleased serial
// stages of an aborted task do not reach the recorder.
func (r *dagRun) abortAll() {
	if r.over {
		return
	}
	r.over = true
	r.m.eng.Cancel(r.timer)
	r.timer = des.Event{}
	// Withdrawal can synchronously cascade local aborts of this run's
	// later items, whose hooks mutate r.live mid-loop; recycling is
	// deferred to a reap pass over the items this loop positively removed
	// (see run.abortAll).
	r.reap = r.reap[:0]
	for _, it := range r.live {
		if r.m.nodes[it.Task.Node].Remove(it) {
			r.reap = append(r.reap, it)
		}
		it.Task.Aborted = true
		if it.Task != r.root {
			r.m.cause("abort", r.root, it.Task, r.root)
		}
		r.m.rec.RecordSubtask(it.Task, true)
	}
	for _, it := range r.reap {
		r.m.nodes[it.Task.Node].RecycleItem(it)
	}
	r.reap = r.reap[:0]
	r.live = r.live[:0]
	m, d, root := r.m, r.dag, r.root
	for _, n := range d.Nodes() {
		// Never released: no virtual deadline was ever assigned.
		if t := n.Task; !t.Finished() && t.VirtualDeadline.IsNever() {
			t.Aborted = true
			m.cause("abort", root, t, root)
		}
	}
	root.Aborted = true
	r.retire()
	m.rec.RecordGlobal(root, true)
	if dr := m.dagOutcome; dr != nil {
		dr.RecordDagOutcome(d, root, true)
	}
}
