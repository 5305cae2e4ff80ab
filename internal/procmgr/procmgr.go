// Package procmgr implements the process manager of the paper's system
// model (Section 3.2, Figure 2): the component that receives newly created
// global tasks, assigns deadlines to their simple subtasks via the SDA
// strategies, submits those subtasks to the appropriate nodes, and
// enforces the precedence constraints among subtasks.
//
// The manager performs the recursive SDA algorithm of Figure 13 *online*:
// a serial stage's virtual deadline is computed at the instant the stage
// becomes executable, using the strategy's view of the remaining stages.
// Parallel groups are decomposed when the group is released. Trees
// (SubmitGlobal) and precedence DAGs (SubmitDag, over the DAG's
// series-parallel decomposition) run through one state machine: a run
// with one control block per released node. Only the source of a node's
// children and the release of a DAG's irreducible clusters (dag.go)
// differ.
//
// Abortion (Section 7.3):
//
//   - Process-manager abortion: a timer fires at each task's *real*
//     deadline; an unfinished task is then withdrawn from every node and
//     counted as missed.
//   - Local-scheduler abortion: when a node discards a subtask whose
//     virtual deadline expired, the manager recomputes a fresh virtual
//     deadline from the remaining budget and resubmits. A subtask whose
//     recomputed deadline is already hopeless (in the past) dooms its
//     global task, which is then abandoned — this reproduces the paper's
//     observation that local aborts consume the task's slack in failed
//     trials.
//
// # Hot path
//
// The steady submit/serve/record cycle is allocation-free: runs and their
// per-node control blocks are pooled on the manager (the control blocks
// live in a slab sized to the task at submission, so pointers stay
// stable), node items are recycled through the nodes' pools, life-cycle
// callbacks go through the node.Hooks interface instead of per-item
// closures, and deadline timers are scheduled with des.AtCall against
// pooled records guarded by generation-tagged item handles. Local tasks,
// trees and DAGs drawn from the manager's task slab go back to it after
// their final outcome callback (see Recorder), and a reclaimed DAG keeps
// its vertex records, adjacency lists and decomposition storage for the
// next one, so the workload stops allocating tasks too. See
// docs/PERFORMANCE.md.
package procmgr

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Errors returned by the submission paths.
var (
	ErrNoDeadline = errors.New("procmgr: task has no real deadline")
	ErrBadNode    = errors.New("procmgr: subtask destined to unknown node")
	ErrNotLocal   = errors.New("procmgr: local tasks must be simple")
)

// Recorder receives the outcome of every task the manager shepherds.
// Implementations aggregate miss rates; the manager itself keeps no
// statistics. All callbacks run on the simulation goroutine.
//
// Ownership: a callback may read any task it is handed, but it may not
// keep the pointer past that task's final callback. A local task's final
// callback is its RecordLocal; every task of a global run, tree or DAG,
// ends with the run's RecordGlobal: for a tree the root, composites and
// subtasks, for a DAG the task.Dag, its accounting root and every vertex
// task. Right after the final callback returns, the manager hands every
// one of them that was drawn from a slab to its own slab (Tasks),
// poisoned, and later draws reuse them, so a kept pointer soon names
// another task or DAG. State keyed by a task or DAG must therefore go at
// its final callback. Heap-built tasks and DAGs (a nil slab) are never
// reclaimed.
type Recorder interface {
	// RecordLocal reports a finished or aborted local task.
	RecordLocal(t *task.Task, missed bool)
	// RecordSubtask reports a simple subtask of a global task, judged
	// against the global task's real deadline (as in the paper's Figure 5).
	RecordSubtask(t *task.Task, missed bool)
	// RecordGlobal reports a finished or aborted global task, the run's
	// final callback. d is a DAG run's graph (root is its accounting
	// root), nil for a tree.
	RecordGlobal(root *task.Task, d *task.Dag, missed bool)
}

// Cause is the kind of a causal edge reported through
// Listener.RecordCause.
type Cause uint8

const (
	CauseParent Cause = iota // structural release; from is the enclosing composite
	CausePred                // precedence release; from finished, making to executable
	CauseAbort               // deadline cascade; from is the aborted global root
)

var causeNames = [...]string{"parent", "pred", "abort"}

// String returns the cause's name: "parent", "pred" or "abort".
func (c Cause) String() string { return causeNames[c] }

// Listener is the optional extension of Recorder: a recorder that also
// implements it observes the rest of the manager's work. The manager
// asserts it once, when the recorder is installed, so a plain Recorder
// pays one nil check per release. Callbacks run synchronously on the
// simulation goroutine and must be cheap.
type Listener interface {
	Recorder
	// RecordRelease observes every deadline assignment: t is the tree
	// node or DAG vertex that just became executable (Arrival,
	// VirtualDeadline and PriorityBoost freshly set), root its global
	// task, and budget the deadline budget the release was decomposed
	// from. A local-abort resubmission is reported as a fresh release.
	RecordRelease(t, root *task.Task, budget simtime.Time)
	// RecordCause reports one causal edge from from to to, right after
	// the release it explains and before the corresponding outcome
	// records.
	RecordCause(kind Cause, from, to, root *task.Task)
	// RecordDagSubmit announces a DAG run right after its accounting
	// root's RecordRelease, before any vertex is released. A DAG born
	// dead (deadline past at submission under pm abort) is not announced.
	RecordDagSubmit(d *task.Dag, root *task.Task)
}

// NopRecorder discards everything. It implements Listener, so a
// subscriber embeds it and overrides only the callbacks it needs.
type NopRecorder struct{}

func (NopRecorder) RecordLocal(*task.Task, bool)                          {}
func (NopRecorder) RecordSubtask(*task.Task, bool)                        {}
func (NopRecorder) RecordGlobal(*task.Task, *task.Dag, bool)              {}
func (NopRecorder) RecordRelease(*task.Task, *task.Task, simtime.Time)    {}
func (NopRecorder) RecordCause(Cause, *task.Task, *task.Task, *task.Task) {}
func (NopRecorder) RecordDagSubmit(*task.Dag, *task.Task)                 {}

// multiRecorder fans every outcome record out to several recorders in
// order.
type multiRecorder []Recorder

// multiListener is a multiRecorder with Listener members: outcomes go
// to every member, the other callbacks to lis, in argument order.
type multiListener struct {
	multiRecorder
	lis []Listener
}

// Recorders returns a Recorder forwarding every record to each of the
// given recorders in argument order. Nil entries are skipped; a single
// recorder is returned unwrapped, and combining nothing yields
// NopRecorder. The result is a Listener exactly
// when a member is one: members are sorted once, here, so no callback
// does a type assertion.
func Recorders(recs ...Recorder) Recorder {
	all := make(multiRecorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			all = append(all, r)
		}
	}
	switch len(all) {
	case 0:
		return NopRecorder{}
	case 1:
		return all[0]
	}
	var lis []Listener
	for _, r := range all {
		if l, ok := r.(Listener); ok {
			lis = append(lis, l)
		}
	}
	if lis == nil {
		return all
	}
	return multiListener{all, lis}
}

func (m multiRecorder) RecordLocal(t *task.Task, missed bool) {
	for _, r := range m {
		r.RecordLocal(t, missed)
	}
}

func (m multiRecorder) RecordSubtask(t *task.Task, missed bool) {
	for _, r := range m {
		r.RecordSubtask(t, missed)
	}
}

func (m multiRecorder) RecordGlobal(root *task.Task, d *task.Dag, missed bool) {
	for _, r := range m {
		r.RecordGlobal(root, d, missed)
	}
}

func (m multiListener) RecordRelease(t, root *task.Task, budget simtime.Time) {
	for _, l := range m.lis {
		l.RecordRelease(t, root, budget)
	}
}

func (m multiListener) RecordCause(kind Cause, from, to, root *task.Task) {
	for _, l := range m.lis {
		l.RecordCause(kind, from, to, root)
	}
}

func (m multiListener) RecordDagSubmit(d *task.Dag, root *task.Task) {
	for _, l := range m.lis {
		l.RecordDagSubmit(d, root)
	}
}

// Manager is the process manager. Create one with New.
type Manager struct {
	eng     *des.Engine
	nodes   []*node.Node
	ssp     sda.SSP
	psp     sda.PSP
	rec     Recorder
	lis     Listener // rec's Listener view, nil for a plain Recorder
	pmAbort bool

	// Free lists and scratch buffers for the allocation-free hot path.
	// The engine is single-goroutine, so plain slices suffice.
	localPool []*localRun
	runPool   []*run
	pexBuf    []simtime.Duration

	// tasks is the slab the workload draws tasks and DAGs from; they go
	// back to it after their final outcome callback, unless keep is set.
	tasks task.Slab
	keep  bool
}

// Option configures a Manager.
type Option func(*Manager)

// WithPMAbort arms a timer at every task's real deadline that withdraws
// and abandons the task if it has not finished (Section 7.3, case 1).
func WithPMAbort() Option {
	return func(m *Manager) { m.pmAbort = true }
}

// WithRecorder sets the outcome sink (default NopRecorder).
func WithRecorder(r Recorder) Option {
	return func(m *Manager) { m.rec = r }
}

// New returns a process manager submitting to the given nodes and using
// the given SSP and PSP strategies for deadline decomposition.
func New(eng *des.Engine, nodes []*node.Node, ssp sda.SSP, psp sda.PSP, opts ...Option) *Manager {
	m := &Manager{eng: eng, nodes: nodes, ssp: ssp, psp: psp, rec: NopRecorder{}}
	for _, o := range opts {
		o(m)
	}
	m.setRecorder(m.rec)
	return m
}

// setRecorder installs the outcome sink and caches its Listener view.
func (m *Manager) setRecorder(r Recorder) {
	m.rec = r
	m.lis, _ = r.(Listener)
}

// SetStrategies hot-swaps the deadline-assignment strategies. A nil
// argument keeps the current strategy. The swap affects every assignment
// made from this instant on — tasks already decomposed keep the virtual
// deadlines they were given, but later serial stages (and local-abort
// resubmissions) of in-flight tasks use the new strategies, matching a
// live reconfiguration of the process manager.
func (m *Manager) SetStrategies(ssp sda.SSP, psp sda.PSP) {
	if ssp != nil {
		m.ssp = ssp
	}
	if psp != nil {
		m.psp = psp
	}
}

// Strategies returns the currently active serial and parallel strategies.
func (m *Manager) Strategies() (sda.SSP, sda.PSP) { return m.ssp, m.psp }

// Tasks returns the manager's task slab. A local task, tree or DAG drawn
// from a slab belongs to the manager once submitted: the manager reclaims
// it into this slab right after its final outcome callback (see
// Recorder).
func (m *Manager) Tasks() *task.Slab { return &m.tasks }

// KeepTasks stops the manager from reclaiming tasks: every task then
// outlives its final callback, as a heap-built one does. Differential
// tests use it to pin a recycled run to an unrecycled one.
func (m *Manager) KeepTasks() { m.keep = true }

// reclaim hands local task or tree t back to the manager's slab after its
// final outcome callback has returned.
func (m *Manager) reclaim(t *task.Task) {
	if !m.keep {
		m.tasks.Reclaim(t)
	}
}

// pexScratch returns the manager's reusable deadline-budget buffer,
// emptied. Strategies must not retain the slice past the AssignSerial
// call (the built-ins are pure); the buffer is handed back via putPex so
// grown capacity is kept.
func (m *Manager) pexScratch() []simtime.Duration { return m.pexBuf[:0] }

func (m *Manager) putPex(p []simtime.Duration) { m.pexBuf = p[:0] }

// localRun tracks one in-flight local task: its pooled completion hooks
// and abort timer. It implements node.Hooks.
type localRun struct {
	m     *Manager
	t     *task.Task
	timer des.Event
	ref   node.ItemRef
}

func (m *Manager) acquireLocalRun() *localRun {
	if k := len(m.localPool); k > 0 {
		lr := m.localPool[k-1]
		m.localPool[k-1] = nil
		m.localPool = m.localPool[:k-1]
		return lr
	}
	return &localRun{m: m}
}

func (m *Manager) releaseLocalRun(lr *localRun) {
	lr.t = nil
	lr.timer = des.Event{}
	lr.ref = node.ItemRef{}
	m.localPool = append(m.localPool, lr)
}

// ItemDone implements node.Hooks: the local task finished service.
func (lr *localRun) ItemDone(it *node.Item, _ simtime.Time) {
	m, t := lr.m, lr.t
	m.eng.Cancel(lr.timer) // no-op on the zero handle or a fired timer
	m.nodes[t.Node].RecycleItem(it)
	m.releaseLocalRun(lr)
	m.rec.RecordLocal(t, t.Missed())
	m.reclaim(t)
}

// ItemLocalAbort implements node.Hooks. Local tasks are scheduled by
// their real deadline, so the manager has no tighter budget to recompute
// from; the node has already counted the abort and there is nothing to
// resubmit or record (matching the closure-era behavior, where local
// tasks carried no local-abort callback). The drop is the task's end, so
// it goes back to the slab.
func (lr *localRun) ItemLocalAbort(it *node.Item, _ simtime.Time) {
	m, t := lr.m, lr.t
	m.eng.Cancel(lr.timer)
	m.nodes[t.Node].RecycleItem(it)
	m.releaseLocalRun(lr)
	m.reclaim(t)
}

// localDeadlineFired is the pm-abort timer callback for local tasks: a
// package-level function with the pooled localRun as argument, so arming
// the timer allocates nothing. The generation-tagged handle makes a stale
// fire (task already resolved, item recycled) a safe no-op.
func localDeadlineFired(x any) {
	lr := x.(*localRun)
	m, t := lr.m, lr.t
	it := lr.ref.Item()
	if it == nil || !m.nodes[t.Node].Remove(it) {
		return
	}
	t.Aborted = true
	m.nodes[t.Node].RecycleItem(it)
	m.releaseLocalRun(lr)
	m.rec.RecordLocal(t, true)
	m.reclaim(t)
}

// CheckNodes reports, as ErrBadNode, the first simple subtask of t that is
// destined to a node the manager does not have, or nil. The submission
// paths make the same check when a task is submitted; a caller that arms
// tasks for later submission checks them up front with it.
func (m *Manager) CheckNodes(t *task.Task) error {
	_, err := m.walkNodes(t)
	return err
}

// walkNodes returns the number of nodes of tree t and CheckNodes' verdict
// on it.
func (m *Manager) walkNodes(t *task.Task) (count int, err error) {
	t.Walk(func(n *task.Task) {
		count++
		if err == nil && n.IsSimple() && (n.Node < 0 || n.Node >= len(m.nodes)) {
			err = fmt.Errorf("%w: %q at node %d", ErrBadNode, n.Name, n.Node)
		}
	})
	return count, err
}

// SubmitLocal submits a local task: a simple task executed at exactly one
// node, scheduled by its own (real) deadline. The task's Arrival is set to
// the current instant; its RealDeadline must already be set.
func (m *Manager) SubmitLocal(t *task.Task) error {
	if t == nil || !t.IsSimple() {
		return ErrNotLocal
	}
	if t.RealDeadline.IsNever() {
		return fmt.Errorf("%w: %q", ErrNoDeadline, t.Name)
	}
	if t.Node < 0 || t.Node >= len(m.nodes) {
		return fmt.Errorf("%w: %q at node %d", ErrBadNode, t.Name, t.Node)
	}
	now := m.eng.Now()
	t.Arrival = now
	t.VirtualDeadline = t.RealDeadline

	nd := m.nodes[t.Node]
	it := nd.AcquireItem(t)
	lr := m.acquireLocalRun()
	lr.t = t
	lr.ref = it.Ref()
	it.Hooks = lr
	if m.pmAbort {
		ev, err := m.eng.AtCall(t.RealDeadline, localDeadlineFired, lr)
		if err != nil {
			// Deadline already in the past at submission: the task is
			// hopeless; count it missed without occupying the node.
			it.Hooks = nil
			nd.RecycleItem(it)
			m.releaseLocalRun(lr)
			t.Aborted = true
			m.rec.RecordLocal(t, true)
			m.reclaim(t)
			return nil
		}
		lr.timer = ev
	}
	return nd.Submit(it)
}

// globalDeadlineFired is the pm-abort timer callback for global tasks,
// trees and DAGs alike.
func globalDeadlineFired(x any) { x.(*run).abortAll() }

// SubmitGlobal submits a global task tree. The root's RealDeadline must be
// set; the manager decomposes it into virtual deadlines online and
// enforces the serial/parallel precedence constraints.
func (m *Manager) SubmitGlobal(root *task.Task) error {
	if root == nil {
		return fmt.Errorf("procmgr: nil global task")
	}
	if err := root.Validate(); err != nil {
		return err
	}
	if root.RealDeadline.IsNever() {
		return fmt.Errorf("%w: %q", ErrNoDeadline, root.Name)
	}
	treeNodes, err := m.walkNodes(root)
	if err != nil {
		return err
	}

	r := m.acquireRun(root, nil, treeNodes)
	if m.arm(r) {
		r.release(r.newCtrl(nil, 0, root, nil), m.eng.Now(), root.RealDeadline, root.RealDeadline, false, nil)
	}
	return nil
}

// arm starts r's pm-abort timer at its real deadline, if the manager
// aborts. It reports false when the task is born dead (the deadline
// already passed) and has been abandoned.
func (m *Manager) arm(r *run) bool {
	if !m.pmAbort {
		return true
	}
	ev, err := m.eng.AtCall(r.root.RealDeadline, globalDeadlineFired, r)
	if err != nil {
		r.abortAll()
		return false
	}
	r.timer = ev
	return true
}

// run tracks one in-flight global task, a tree or a DAG. Runs are pooled
// on the manager; their control blocks live in a slab sized to the task at
// submission so ctrl pointers stay stable for the run's whole life.
type run struct {
	m     *Manager
	root  *task.Task
	dag   *task.Dag // nil for a tree
	timer des.Event
	live  liveSet // submitted, not yet finished
	over  bool    // completed or aborted
	ctrls []ctrl  // slab: exactly one ctrl per released tree or structure node and cluster member
	reap  []*node.Item

	// DAG cluster bookkeeping. Clusters of one DAG have disjoint members,
	// so one slice indexed by vertex id serves them all; each cluster's
	// pending counts are carved from the pending arena.
	groupOf []int // per vertex id: the vertex's group within its cluster
	pending []int
	seenBuf []int
}

// acquireRun returns a run for root (and d, for a DAG), recycled from the
// manager's pool when one is free. ctrls is the number of control blocks
// the run needs; the slab is sized to it up front so newCtrl never
// reallocates (pointer stability).
func (m *Manager) acquireRun(root *task.Task, d *task.Dag, ctrls int) *run {
	var r *run
	if k := len(m.runPool); k > 0 {
		r = m.runPool[k-1]
		m.runPool[k-1] = nil
		m.runPool = m.runPool[:k-1]
	} else {
		r = &run{m: m}
	}
	r.root, r.dag, r.over = root, d, false
	if cap(r.ctrls) < ctrls {
		r.ctrls = make([]ctrl, 0, ctrls)
	}
	if d != nil {
		n := d.Len()
		if cap(r.groupOf) < n {
			r.groupOf = make([]int, n)
			r.pending = make([]int, 0, n)
		}
		r.groupOf = r.groupOf[:n]
		r.pending = r.pending[:0]
	}
	return r
}

// releaseRun recycles a finished or aborted run. Frames still unwinding
// over it may read its ctrls but must place no new ones (every release
// checks over first); stale slab contents are overwritten by the next
// acquire.
func (m *Manager) releaseRun(r *run) {
	r.root, r.dag = nil, nil
	r.timer = des.Event{}
	r.live = r.live[:0]
	r.reap = r.reap[:0]
	r.ctrls = r.ctrls[:0]
	m.runPool = append(m.runPool, r)
}

// newCtrl allocates a control block from the run's slab: for tree node t,
// or for decomposition node s (a leaf's vertex task becomes its t). idx is
// the block's index within its parent. The block is set field by field in
// its slab entry, which may hold a previous run's block, rather than
// copied in from a composite literal.
func (r *run) newCtrl(parent *ctrl, idx int, t *task.Task, s *task.Structure) *ctrl {
	n := len(r.ctrls)
	if n == cap(r.ctrls) {
		// The slab is sized to the task at submission and each node is
		// released at most once; overflow is a bug.
		panic("procmgr: ctrl slab overflow")
	}
	if s != nil && s.Kind == task.StructLeaf {
		t = s.Node.Task
	}
	r.ctrls = r.ctrls[:n+1]
	c := &r.ctrls[n]
	c.run, c.t, c.s, c.parent, c.stageIdx = r, t, s, parent, idx
	c.remaining, c.vdl, c.boost = 0, 0, false
	c.down, c.groups, c.pending, c.member = nil, nil, nil, nil
	return c
}

// child returns a fresh ctrl for the i-th child of composite p.
func (r *run) child(p *ctrl, i int) *ctrl {
	if p.s != nil {
		return r.newCtrl(p, i, nil, p.s.Children[i])
	}
	return r.newCtrl(p, i, p.t.Children[i], nil)
}

// liveSet is the insertion-ordered set of a run's outstanding items.
// Abortion iterates it and the resulting event order is visible in the
// trace, which must be reproducible — a map's random iteration order is
// not an option. Runs hold at most a handful of concurrent items, so
// linear removal is cheap.
type liveSet []*node.Item

func (s *liveSet) add(it *node.Item) { *s = append(*s, it) }

func (s *liveSet) remove(it *node.Item) {
	for i, v := range *s {
		if v == it {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}

// ctrl is the control block for one node of a task tree, one node of a
// DAG's decomposition, or one vertex inside a cluster. Leaf ctrls
// implement node.Hooks, replacing the two closures the manager used to
// allocate per submitted item.
type ctrl struct {
	run       *run
	t         *task.Task      // tree node, or the vertex of a DAG leaf or member; nil on DAG composites
	s         *task.Structure // decomposition node; nil on tree ctrls and members
	parent    *ctrl
	stageIdx  int // index of this child within its parent
	remaining int // parallel: unfinished children; serial: next stage index; cluster: unfinished members

	// The deadline budget and GF boost the node was released with. Tree
	// nodes also carry them on t; decomposition nodes have no task.
	vdl   simtime.Time
	boost bool

	// Cluster state (s.Kind == StructCluster).
	down    []simtime.Duration // Structure.MemberDown: per vertex id, task.NotMember outside
	groups  [][]*task.DagNode
	pending []int // per group: unfinished in-cluster predecessors

	// member is set on the per-vertex ctrl inside a cluster; its parent is
	// then the cluster ctrl.
	member *task.DagNode
}

// kind returns c's node kind in decomposition terms: tree nodes and
// cluster members map onto leaf, serial and parallel.
func (c *ctrl) kind() task.StructKind {
	if c.s != nil {
		return c.s.Kind
	}
	switch c.t.Kind {
	case task.KindSerial:
		return task.StructSerial
	case task.KindParallel:
		return task.StructParallel
	default:
		return task.StructLeaf
	}
}

// fanout returns the number of children of composite c.
func (c *ctrl) fanout() int {
	if c.s != nil {
		return len(c.s.Children)
	}
	return len(c.t.Children)
}

// ItemDone implements node.Hooks: the leaf's subtask finished service.
func (c *ctrl) ItemDone(done *node.Item, at simtime.Time) {
	r := c.run
	t := c.t
	r.live.remove(done)
	r.m.nodes[t.Node].RecycleItem(done)
	r.m.rec.RecordSubtask(t, at.After(r.root.RealDeadline))
	r.finished(c, at, nil)
}

// ItemLocalAbort implements node.Hooks: the node discarded the leaf's
// subtask because its virtual deadline expired.
func (c *ctrl) ItemLocalAbort(ab *node.Item, at simtime.Time) {
	r := c.run
	r.live.remove(ab)
	r.resubmit(c, ab, at)
}

// release makes the subtree rooted at c executable at instant now with the
// given deadline budget and GF boost flag. parentBudget is the budget the
// assignment was decomposed from (equal to budget for the root), passed to
// the Listener for invariant checking. pred is the task whose
// completion triggered this release (nil for structural releases at
// submission); it threads through composite fan-outs so every subtree
// made executable by one completion carries the same causal origin.
//
// Every tree node is reported to the Listener, with a "parent" edge below
// the root; a DAG reports only its vertices, the decomposition nodes
// having no task.
func (r *run) release(c *ctrl, now simtime.Time, budget simtime.Time, parentBudget simtime.Time, boost bool, pred *task.Task) {
	if r.over {
		return
	}
	c.vdl, c.boost = budget, boost
	if t := c.t; t != nil {
		t.Arrival = now
		t.VirtualDeadline = budget
		t.PriorityBoost = boost
		if lis := r.m.lis; lis != nil {
			lis.RecordRelease(t, r.root, parentBudget)
			if c.parent != nil && r.dag == nil {
				lis.RecordCause(CauseParent, c.parent.t, t, r.root)
			}
			if pred != nil {
				lis.RecordCause(CausePred, pred, t, r.root)
			}
		}
	}
	switch c.kind() {
	case task.StructLeaf:
		r.submitLeaf(c)
	case task.StructSerial:
		c.remaining = 0
		r.releaseStage(c, now, pred)
	case task.StructParallel:
		n := c.fanout()
		c.remaining = n
		a := r.m.psp.AssignParallel(now, budget, n)
		// A submission can end the run (a hopeless local-abort
		// resubmission aborts it); stop placing ctrls in its slab then.
		for i := 0; i < n && !r.over; i++ {
			r.release(r.child(c, i), now, a.Virtual, budget, boost || a.Boost, pred)
		}
	case task.StructCluster:
		r.releaseCluster(c, now, pred)
	}
}

// releaseStage releases the next serial stage of c at instant now. pred
// is the task whose completion made the stage executable (nil when the
// serial composite itself was just released).
func (r *run) releaseStage(c *ctrl, now simtime.Time, pred *task.Task) {
	i := c.remaining
	dl := r.stageDeadline(c, i, now)
	r.release(r.child(c, i), now, dl, c.vdl, c.boost, pred)
}

// stageDeadline is the SSP's deadline for stage i of serial c released at
// now, with the stages from i on as the remaining ones.
func (r *run) stageDeadline(c *ctrl, i int, now simtime.Time) simtime.Time {
	pexs := r.m.pexScratch()
	if c.s != nil {
		for _, rest := range c.s.Children[i:] {
			pexs = append(pexs, rest.PredictedCriticalPath())
		}
	} else {
		for _, rest := range c.t.Children[i:] {
			pexs = append(pexs, rest.PredictedCriticalPath())
		}
	}
	dl := r.m.ssp.AssignSerial(now, c.vdl, pexs)
	r.m.putPex(pexs)
	return dl
}

// submitLeaf sends a simple subtask to its node.
func (r *run) submitLeaf(c *ctrl) {
	nd := r.m.nodes[c.t.Node]
	it := nd.AcquireItem(c.t)
	it.Hooks = c
	r.live.add(it)
	if err := nd.Submit(it); err != nil {
		// Validated up front; a failure here is a bug in the manager.
		panic(fmt.Sprintf("procmgr: submit leaf %q: %v", c.t.Name, err))
	}
}

// resubmit handles a local-scheduler abort of leaf c: recompute the
// virtual deadline from the remaining budget and try again, or abandon the
// whole task when the subtask has become hopeless.
func (r *run) resubmit(c *ctrl, it *node.Item, now simtime.Time) {
	if r.over {
		return
	}
	vdl, boost := r.reassign(c, now)
	if vdl.Before(now) {
		// The recomputed deadline is still in the past: the former trial
		// consumed all the slack. Give up on the whole global task. The
		// aborted item is already out of the live set, so the cascade
		// cannot reach it; recycle it once the run is wound down (the run
		// itself is released inside abortAll).
		nd := r.m.nodes[c.t.Node]
		r.abortAll()
		nd.RecycleItem(it)
		return
	}
	c.t.VirtualDeadline = vdl
	c.t.PriorityBoost = boost
	if r.m.lis != nil {
		budget := r.root.RealDeadline
		if c.parent != nil {
			budget = c.parent.vdl
		}
		r.m.lis.RecordRelease(c.t, r.root, budget)
	}
	r.live.add(it)
	if err := r.m.nodes[c.t.Node].Submit(it); err != nil {
		panic(fmt.Sprintf("procmgr: resubmit leaf %q: %v", c.t.Name, err))
	}
}

// reassign recomputes the virtual deadline a leaf would receive if its
// parent decomposed its budget at instant now.
func (r *run) reassign(c *ctrl, now simtime.Time) (simtime.Time, bool) {
	if c.member != nil {
		vdl, _, boost := r.groupDeadline(c.parent, r.groupOf[c.member.ID()], now)
		return vdl, boost
	}
	p := c.parent
	if p == nil {
		// A global task that is a bare simple subtask (or a single-vertex
		// DAG): its budget is the real deadline.
		return r.root.RealDeadline, c.boost
	}
	switch p.kind() {
	case task.StructParallel:
		a := r.m.psp.AssignParallel(now, p.vdl, p.fanout())
		return a.Virtual, p.boost || a.Boost
	case task.StructSerial:
		return r.stageDeadline(p, c.stageIdx, now), p.boost
	default:
		return p.vdl, p.boost
	}
}

// finished propagates completion of the subtree rooted at c upward. cause
// is the task whose completion finished it: c's own task where it has
// one, else the vertex that finished last. Releases it unlocks carry it as
// their causal predecessor.
func (r *run) finished(c *ctrl, at simtime.Time, cause *task.Task) {
	if r.over {
		return
	}
	if c.t != nil {
		c.t.Finish = at
		cause = c.t
	}
	if c.member != nil {
		r.memberFinished(c, at)
		return
	}
	p := c.parent
	if p == nil {
		r.complete(at)
		return
	}
	switch p.kind() {
	case task.StructSerial:
		next := c.stageIdx + 1
		if next < p.fanout() {
			p.remaining = next
			r.releaseStage(p, at, cause)
			return
		}
		r.finished(p, at, cause)
	case task.StructParallel:
		p.remaining--
		if p.remaining == 0 {
			r.finished(p, at, cause)
		}
	}
}

// complete closes out a successfully finished run. The run is recycled
// before the recorder fires and its tasks right after it; callers up the
// finished() recursion must touch neither afterwards.
func (r *run) complete(at simtime.Time) {
	r.over = true
	m, d, root := r.m, r.dag, r.root
	root.Finish = at
	m.eng.Cancel(r.timer)
	m.releaseRun(r)
	m.rec.RecordGlobal(root, d, at.After(root.RealDeadline))
	m.reclaimRun(root, d)
}

// reclaimRun hands a run's tasks back to the slab after its RecordGlobal:
// a tree from its root, a DAG whole.
func (m *Manager) reclaimRun(root *task.Task, d *task.Dag) {
	if d == nil {
		m.reclaim(root)
	} else if !m.keep {
		m.tasks.ReclaimDag(d)
	}
}

// AbortRun abandons the global task, tree or DAG, that m submitted it for,
// exactly as a process-manager deadline abort would: every outstanding
// subtask is withdrawn, the task is recorded as missed, and its unreleased
// stages never run. It reports false when it belongs to no live run of m.
func (m *Manager) AbortRun(it *node.Item) bool {
	c, ok := it.Hooks.(*ctrl)
	if !ok || c.run.m != m || c.run.over {
		return false
	}
	c.run.abortAll()
	return true
}

// abortAll withdraws every outstanding subtask and abandons the run. In a
// DAG the abort cascades to the vertices never released: they are marked
// aborted but never recorded, as unreleased serial stages of an aborted
// tree never reach the recorder.
func (r *run) abortAll() {
	if r.over {
		return
	}
	r.over = true
	m, d, root := r.m, r.dag, r.root
	m.eng.Cancel(r.timer)
	r.timer = des.Event{}
	r.withdraw()
	if d != nil {
		for _, n := range d.Nodes() {
			// Never released: no virtual deadline was ever assigned.
			if t := n.Task; !t.Finished() && t.VirtualDeadline.IsNever() {
				t.Aborted = true
				if m.lis != nil {
					m.lis.RecordCause(CauseAbort, root, t, root)
				}
			}
		}
	}
	root.Aborted = true
	m.releaseRun(r)
	m.rec.RecordGlobal(root, d, true)
	m.reclaimRun(root, d)
}

// withdraw removes the run's outstanding items from their nodes, marking
// each task aborted and recording it missed.
//
// Withdrawing an in-service item frees its server, and the node's
// dispatch can synchronously local-abort further items — including later
// items of this very run, whose hooks then mutate live mid-loop. The
// loop therefore ranges over the header captured at entry (preserving the
// long-standing cascade semantics) and recycling is deferred: only items
// this loop positively removed are reaped, after the loop, so a slot the
// cascade already touched is never recycled twice or read after reuse.
func (r *run) withdraw() {
	m, root := r.m, r.root
	reap := r.reap[:0]
	for _, it := range r.live {
		if m.nodes[it.Task.Node].Remove(it) {
			reap = append(reap, it)
		}
		it.Task.Aborted = true
		if m.lis != nil && it.Task != root {
			m.lis.RecordCause(CauseAbort, root, it.Task, root)
		}
		m.rec.RecordSubtask(it.Task, true)
	}
	for _, it := range reap {
		m.nodes[it.Task.Node].RecycleItem(it)
	}
	r.reap = reap[:0]
}
