// Package procmgr implements the process manager of the paper's system
// model (Section 3.2, Figure 2): the component that receives newly created
// global tasks, assigns deadlines to their simple subtasks via the SDA
// strategies, submits those subtasks to the appropriate nodes, and
// enforces the precedence constraints among subtasks.
//
// The manager performs the recursive SDA algorithm of Figure 13 *online*:
// a serial stage's virtual deadline is computed at the instant the stage
// becomes executable, using the strategy's view of the remaining stages.
// Parallel groups are decomposed when the group is released.
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
// per-tree-node control blocks are pooled on the manager (the control
// blocks live in a slab sized to the tree at submission, so pointers stay
// stable), node items are recycled through the nodes' pools, life-cycle
// callbacks go through the node.Hooks interface instead of per-item
// closures, and deadline timers are scheduled with des.AtCall against
// pooled records guarded by generation-tagged item handles. See
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
type Recorder interface {
	// RecordLocal reports a finished or aborted local task.
	RecordLocal(t *task.Task, missed bool)
	// RecordSubtask reports a simple subtask of a global task, judged
	// against the global task's real deadline (as in the paper's Figure 5).
	RecordSubtask(t *task.Task, missed bool)
	// RecordGlobal reports a finished or aborted global task.
	RecordGlobal(root *task.Task, missed bool)
}

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
	// RecordCause reports one causal edge, right after the release it
	// explains and before the corresponding outcome records. Kinds are
	// plain strings so this package needs no knowledge of the
	// consumer's vocabulary:
	//
	//   - "parent": structural release; from is the enclosing composite.
	//   - "pred": precedence release; from is the predecessor whose
	//     completion made to executable.
	//   - "abort": deadline cascade; from is the aborted global root.
	RecordCause(kind string, from, to, root *task.Task)
	// RecordDagSubmit reports a DAG submission before its first release;
	// root is the accounting root later passed to the other callbacks.
	RecordDagSubmit(d *task.Dag, root *task.Task)
	// RecordDagOutcome follows the RecordGlobal that ends a DAG run. It
	// carries the DAG itself, so a consumer can judge the response time
	// against the DAG's true critical path rather than the synthetic
	// root's max-over-vertices view.
	RecordDagOutcome(d *task.Dag, root *task.Task, missed bool)
}

// NopRecorder discards everything. It implements Listener, so a
// subscriber embeds it and overrides only the callbacks it needs.
type NopRecorder struct{}

func (NopRecorder) RecordLocal(*task.Task, bool)                           {}
func (NopRecorder) RecordSubtask(*task.Task, bool)                         {}
func (NopRecorder) RecordGlobal(*task.Task, bool)                          {}
func (NopRecorder) RecordRelease(*task.Task, *task.Task, simtime.Time)     {}
func (NopRecorder) RecordCause(string, *task.Task, *task.Task, *task.Task) {}
func (NopRecorder) RecordDagSubmit(*task.Dag, *task.Task)                  {}
func (NopRecorder) RecordDagOutcome(*task.Dag, *task.Task, bool)           {}

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

func (m multiRecorder) RecordGlobal(root *task.Task, missed bool) {
	for _, r := range m {
		r.RecordGlobal(root, missed)
	}
}

func (m multiListener) RecordRelease(t, root *task.Task, budget simtime.Time) {
	for _, l := range m.lis {
		l.RecordRelease(t, root, budget)
	}
}

func (m multiListener) RecordCause(kind string, from, to, root *task.Task) {
	for _, l := range m.lis {
		l.RecordCause(kind, from, to, root)
	}
}

func (m multiListener) RecordDagSubmit(d *task.Dag, root *task.Task) {
	for _, l := range m.lis {
		l.RecordDagSubmit(d, root)
	}
}

func (m multiListener) RecordDagOutcome(d *task.Dag, root *task.Task, missed bool) {
	for _, l := range m.lis {
		l.RecordDagOutcome(d, root, missed)
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
	dagPool   []*dagRun
	pexBuf    []simtime.Duration
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
}

// ItemLocalAbort implements node.Hooks. Local tasks are scheduled by
// their real deadline, so the manager has no tighter budget to recompute
// from; the node has already counted the abort and there is nothing to
// resubmit or record (matching the closure-era behavior, where local
// tasks carried no local-abort callback).
func (lr *localRun) ItemLocalAbort(it *node.Item, _ simtime.Time) {
	m, t := lr.m, lr.t
	m.eng.Cancel(lr.timer)
	m.nodes[t.Node].RecycleItem(it)
	m.releaseLocalRun(lr)
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
		// Deadline timers are manager events, not node events: untag them
		// so the kernel flight recorder classes them as external traffic.
		m.eng.SetDomain(des.DomainNone)
		ev, err := m.eng.AtCall(t.RealDeadline, localDeadlineFired, lr)
		if err != nil {
			// Deadline already in the past at submission: the task is
			// hopeless; count it missed without occupying the node.
			it.Hooks = nil
			nd.RecycleItem(it)
			m.releaseLocalRun(lr)
			t.Aborted = true
			m.rec.RecordLocal(t, true)
			return nil
		}
		lr.timer = ev
	}
	return nd.Submit(it)
}

// globalDeadlineFired is the pm-abort timer callback for global tasks.
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
	var badNode error
	var treeNodes int
	root.Walk(func(n *task.Task) {
		treeNodes++
		if badNode == nil && n.IsSimple() && (n.Node < 0 || n.Node >= len(m.nodes)) {
			badNode = fmt.Errorf("%w: %q at node %d", ErrBadNode, n.Name, n.Node)
		}
	})
	if badNode != nil {
		return badNode
	}

	r := m.acquireRun(root, treeNodes)
	if m.pmAbort {
		m.eng.SetDomain(des.DomainNone)
		ev, err := m.eng.AtCall(root.RealDeadline, globalDeadlineFired, r)
		if err != nil {
			// Born dead: deadline already passed.
			r.abortAll()
			return nil
		}
		r.timer = ev
	}
	r.release(r.newCtrl(root, nil, 0), m.eng.Now(), root.RealDeadline, root.RealDeadline, false, nil)
	return nil
}

// run tracks one in-flight global task. Runs are pooled on the manager;
// their control blocks live in a slab sized to the tree at submission so
// ctrl pointers stay stable for the run's whole life.
type run struct {
	m     *Manager
	root  *task.Task
	timer des.Event
	live  liveSet // submitted, not yet finished
	over  bool    // completed or aborted
	ctrls []ctrl  // slab: exactly one ctrl per released tree node
	reap  []*node.Item
}

// acquireRun returns a run for root, recycled from the manager's pool
// when one is free. treeNodes is the tree's node count; the ctrl slab is
// sized to it up front so newCtrl never reallocates (pointer stability).
func (m *Manager) acquireRun(root *task.Task, treeNodes int) *run {
	var r *run
	if k := len(m.runPool); k > 0 {
		r = m.runPool[k-1]
		m.runPool[k-1] = nil
		m.runPool = m.runPool[:k-1]
	} else {
		r = &run{m: m}
	}
	r.root = root
	r.over = false
	if cap(r.ctrls) < treeNodes {
		r.ctrls = make([]ctrl, 0, treeNodes)
	}
	// An abort inside a fan-out loop recycles the run while the loop goes
	// on placing ctrls, so the slab may hold stale entries here.
	r.ctrls = r.ctrls[:0]
	return r
}

// releaseRun recycles a finished or aborted run. Callers must not touch
// the run or its ctrls afterwards; stale slab contents are overwritten by
// the next acquire.
func (m *Manager) releaseRun(r *run) {
	r.root = nil
	r.timer = des.Event{}
	r.live = r.live[:0]
	r.reap = r.reap[:0]
	r.ctrls = r.ctrls[:0]
	m.runPool = append(m.runPool, r)
}

// newCtrl allocates a control block from the run's slab.
func (r *run) newCtrl(t *task.Task, parent *ctrl, stageIdx int) *ctrl {
	if len(r.ctrls) == cap(r.ctrls) {
		// The slab is sized to the tree's node count at submission and each
		// tree node is released at most once; overflow is a bug.
		panic("procmgr: ctrl slab overflow")
	}
	r.ctrls = append(r.ctrls, ctrl{run: r, t: t, parent: parent, stageIdx: stageIdx})
	return &r.ctrls[len(r.ctrls)-1]
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

// ctrl is the control block for one node of the task tree. Leaf ctrls
// implement node.Hooks, replacing the two closures the manager used to
// allocate per submitted item.
type ctrl struct {
	run       *run
	t         *task.Task
	parent    *ctrl
	stageIdx  int // index of this child within its parent
	remaining int // parallel: unfinished children; serial: next stage index
}

// ItemDone implements node.Hooks: the leaf's subtask finished service.
func (c *ctrl) ItemDone(done *node.Item, at simtime.Time) {
	r := c.run
	t := c.t
	r.live.remove(done)
	r.m.nodes[t.Node].RecycleItem(done)
	r.m.rec.RecordSubtask(t, at.After(r.root.RealDeadline))
	r.finished(c, at)
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
func (r *run) release(c *ctrl, now simtime.Time, budget simtime.Time, parentBudget simtime.Time, boost bool, pred *task.Task) {
	if r.over {
		return
	}
	c.t.Arrival = now
	c.t.VirtualDeadline = budget
	c.t.PriorityBoost = boost
	if lis := r.m.lis; lis != nil {
		lis.RecordRelease(c.t, r.root, parentBudget)
		if c.parent != nil {
			lis.RecordCause("parent", c.parent.t, c.t, r.root)
		}
		if pred != nil {
			lis.RecordCause("pred", pred, c.t, r.root)
		}
	}
	switch c.t.Kind {
	case task.KindSimple:
		r.submitLeaf(c)
	case task.KindSerial:
		c.remaining = 0
		r.releaseStage(c, now, pred)
	case task.KindParallel:
		c.remaining = len(c.t.Children)
		a := r.m.psp.AssignParallel(now, budget, len(c.t.Children))
		for i, child := range c.t.Children {
			r.release(r.newCtrl(child, c, i), now, a.Virtual, budget, boost || a.Boost, pred)
		}
	}
}

// releaseStage releases the next serial stage of c at instant now. pred
// is the task whose completion made the stage executable (nil when the
// serial composite itself was just released).
func (r *run) releaseStage(c *ctrl, now simtime.Time, pred *task.Task) {
	i := c.remaining
	child := c.t.Children[i]
	pexs := r.m.pexScratch()
	for _, rest := range c.t.Children[i:] {
		pexs = append(pexs, rest.PredictedCriticalPath())
	}
	dl := r.m.ssp.AssignSerial(now, c.t.VirtualDeadline, pexs)
	r.m.putPex(pexs)
	r.release(r.newCtrl(child, c, i), now, dl, c.t.VirtualDeadline, c.t.PriorityBoost, pred)
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
			budget = c.parent.t.VirtualDeadline
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
	p := c.parent
	if p == nil {
		// A global task that is a bare simple subtask: its budget is the
		// real deadline.
		return r.root.RealDeadline, c.t.PriorityBoost
	}
	switch p.t.Kind {
	case task.KindParallel:
		a := r.m.psp.AssignParallel(now, p.t.VirtualDeadline, len(p.t.Children))
		return a.Virtual, p.t.PriorityBoost || a.Boost
	case task.KindSerial:
		i := c.stageIdx
		pexs := r.m.pexScratch()
		for _, rest := range p.t.Children[i:] {
			pexs = append(pexs, rest.PredictedCriticalPath())
		}
		dl := r.m.ssp.AssignSerial(now, p.t.VirtualDeadline, pexs)
		r.m.putPex(pexs)
		return dl, p.t.PriorityBoost
	default:
		return p.t.VirtualDeadline, p.t.PriorityBoost
	}
}

// finished propagates completion of the subtree rooted at c upward.
func (r *run) finished(c *ctrl, at simtime.Time) {
	if r.over {
		return
	}
	c.t.Finish = at
	p := c.parent
	if p == nil {
		r.complete(at)
		return
	}
	switch p.t.Kind {
	case task.KindSerial:
		next := c.stageIdx + 1
		if next < len(p.t.Children) {
			p.remaining = next
			r.releaseStage(p, at, c.t)
			return
		}
		r.finished(p, at)
	case task.KindParallel:
		p.remaining--
		if p.remaining == 0 {
			r.finished(p, at)
		}
	}
}

// complete closes out a successfully finished run. The run is recycled
// before the recorder fires; callers up the finished() recursion must not
// touch the run afterwards.
func (r *run) complete(at simtime.Time) {
	r.over = true
	m, root := r.m, r.root
	m.eng.Cancel(r.timer)
	m.releaseRun(r)
	m.rec.RecordGlobal(root, at.After(root.RealDeadline))
}

// AbortRun abandons the serial-parallel global task that m submitted it
// for, exactly as a process-manager deadline abort would: every
// outstanding subtask is withdrawn, the task is recorded as missed, and
// its unreleased stages never run. It reports false when it belongs to no
// live run of m.
func (m *Manager) AbortRun(it *node.Item) bool {
	c, ok := it.Hooks.(*ctrl)
	if !ok || c.run.m != m || c.run.over {
		return false
	}
	c.run.abortAll()
	return true
}

// abortAll withdraws every outstanding subtask and abandons the run.
func (r *run) abortAll() {
	if r.over {
		return
	}
	r.over = true
	m := r.m
	m.eng.Cancel(r.timer)
	r.timer = des.Event{}
	r.reap = m.withdraw(r.live, r.root, r.reap)
	root := r.root
	root.Aborted = true
	m.releaseRun(r)
	m.rec.RecordGlobal(root, true)
}

// withdraw removes the outstanding items live of root's aborted run from
// their nodes, marking each task aborted and recording it missed.
//
// Withdrawing an in-service item frees its server, and the node's
// dispatch can synchronously local-abort further items — including later
// items of this very run, whose hooks then mutate live mid-loop. The
// loop therefore ranges over the header captured at entry (preserving the
// long-standing cascade semantics) and recycling is deferred: only items
// this loop positively removed are reaped, after the loop, so a slot the
// cascade already touched is never recycled twice or read after reuse.
// reap is scratch space, returned emptied for reuse.
func (m *Manager) withdraw(live liveSet, root *task.Task, reap []*node.Item) []*node.Item {
	reap = reap[:0]
	for _, it := range live {
		if m.nodes[it.Task.Node].Remove(it) {
			reap = append(reap, it)
		}
		it.Task.Aborted = true
		if m.lis != nil && it.Task != root {
			m.lis.RecordCause("abort", root, it.Task, root)
		}
		m.rec.RecordSubtask(it.Task, true)
	}
	for _, it := range reap {
		m.nodes[it.Task.Node].RecycleItem(it)
	}
	return reap[:0]
}
