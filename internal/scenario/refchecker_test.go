package scenario

// The map-keyed invariant checker that Checker replaced, kept verbatim
// (apart from its type and release-callback names) as the differential reference for
// FuzzCheckerParity and the parity tests: the dense checker must report
// exactly what this one reports on any observer stream.

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/task"
)

// refChecker is the reference: per-item state in maps keyed by item
// pointer, per-node state in maps keyed by node id.
type refChecker struct {
	allowEarlyVDL bool

	nodes   []*node.Node
	waiting map[*node.Item]int // item -> node id, while queued
	serving map[*node.Item]int // item -> node id, while in service
	perNode map[int]int        // node id -> in-service count

	// waitAt indexes the waiting set by node, so the queue-policy check in
	// OnStart scans one node's queue instead of every waiting item in the
	// fleet — the difference between O(queue) and O(fleet) per dispatch,
	// which is what lets the checker stay always-on at 10k+ nodes.
	waitAt map[int]map[*node.Item]struct{}

	last       simtime.Time
	violations []string
	dropped    int // violations beyond maxViolations
}

var _ node.Observer = (*refChecker)(nil)

// newRefChecker returns a checker; allowEarlyVDL disables the
// deadline-not-before-release check (needed for GF-delta).
func newRefChecker(allowEarlyVDL bool) *refChecker {
	return &refChecker{
		allowEarlyVDL: allowEarlyVDL,
		waiting:       make(map[*node.Item]int),
		serving:       make(map[*node.Item]int),
		perNode:       make(map[int]int),
		waitAt:        make(map[int]map[*node.Item]struct{}),
	}
}

// wait records it as waiting at node id in both the flat map and the
// per-node index.
func (c *refChecker) wait(it *node.Item, id int) {
	c.waiting[it] = id
	q := c.waitAt[id]
	if q == nil {
		q = make(map[*node.Item]struct{})
		c.waitAt[id] = q
	}
	q[it] = struct{}{}
}

// unwait removes it from the waiting set; a no-op if it was not waiting.
func (c *refChecker) unwait(it *node.Item) {
	id, ok := c.waiting[it]
	if !ok {
		return
	}
	delete(c.waiting, it)
	delete(c.waitAt[id], it)
}

// Bind attaches the nodes under observation; needed only for the final
// conservation check's down-node tolerance.
func (c *refChecker) Bind(nodes []*node.Node) { c.nodes = nodes }

// Violations returns the recorded invariant violations in order.
func (c *refChecker) Violations() []string {
	out := make([]string, len(c.violations))
	copy(out, c.violations)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations", c.dropped))
	}
	return out
}

func (c *refChecker) violate(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// clock checks monotone event time.
func (c *refChecker) clock(at simtime.Time) {
	if at.Before(c.last) {
		c.violate("time went backwards: %v after %v", at, c.last)
	}
	c.last = at
}

// OnEnqueue implements node.Observer.
func (c *refChecker) OnEnqueue(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	if _, dup := c.waiting[it]; dup {
		c.violate("t=%v node%d: item %q enqueued while already waiting", at, n.ID(), it.Task.Name)
	}
	if _, dup := c.serving[it]; dup {
		c.violate("t=%v node%d: item %q enqueued while in service", at, n.ID(), it.Task.Name)
	}
	if it.Task.VirtualDeadline.IsNever() {
		c.violate("t=%v node%d: item %q enqueued without a virtual deadline", at, n.ID(), it.Task.Name)
	}
	c.wait(it, n.ID())
}

// OnStart implements node.Observer.
func (c *refChecker) OnStart(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	if n.Down() {
		c.violate("t=%v node%d: service started while node is down", at, n.ID())
	}
	if _, ok := c.waiting[it]; !ok {
		c.violate("t=%v node%d: item %q started without being enqueued", at, n.ID(), it.Task.Name)
	}
	c.unwait(it)
	// Queue-policy order: nothing left waiting at this node may strictly
	// outrank the item just chosen.
	pol := n.Policy()
	for w := range c.waitAt[n.ID()] {
		if pol.Less(w, it) {
			c.violate("t=%v node%d: started %q but waiting %q outranks it under %s",
				at, n.ID(), it.Task.Name, w.Task.Name, pol.Name())
		}
	}
	c.serving[it] = n.ID()
	c.perNode[n.ID()]++
	if c.perNode[n.ID()] > n.Servers() {
		c.violate("t=%v node%d: %d items in service but only %d servers",
			at, n.ID(), c.perNode[n.ID()], n.Servers())
	}
}

// OnFinish implements node.Observer.
func (c *refChecker) OnFinish(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	if _, ok := c.serving[it]; !ok {
		c.violate("t=%v node%d: item %q finished without being in service", at, n.ID(), it.Task.Name)
		return
	}
	delete(c.serving, it)
	c.perNode[n.ID()]--
}

// OnAbort implements node.Observer.
func (c *refChecker) OnAbort(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	if _, ok := c.serving[it]; ok {
		delete(c.serving, it)
		c.perNode[n.ID()]--
		return
	}
	if _, ok := c.waiting[it]; ok {
		c.unwait(it)
		return
	}
	c.violate("t=%v node%d: item %q aborted but was neither waiting nor in service", at, n.ID(), it.Task.Name)
}

// OnPreempt implements node.Observer.
func (c *refChecker) OnPreempt(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	if _, ok := c.serving[it]; !ok {
		c.violate("t=%v node%d: item %q preempted without being in service", at, n.ID(), it.Task.Name)
		return
	}
	delete(c.serving, it)
	c.perNode[n.ID()]--
	c.wait(it, n.ID())
}

// RecordRelease checks every deadline assignment: t has just been
// released against budget; root is its global task.
func (c *refChecker) RecordRelease(t, root *task.Task, budget simtime.Time) {
	vdl := t.VirtualDeadline
	if vdl.IsNever() {
		c.violate("release of %q: no virtual deadline assigned", t.Name)
		return
	}
	if root.RealDeadline.IsNever() {
		c.violate("release of %q: global task %q has no real deadline", t.Name, root.Name)
		return
	}
	// Both bounds only bind while the decomposition still has room: a
	// stage released after its budget has already passed (negative slack)
	// may legitimately be pushed past the budget by EQS/EQF's
	// proportional split, and past deadlines make the bounds moot anyway.
	slack := budget.Sub(t.Arrival) - t.PredictedCriticalPath()
	if slack < 0 {
		return
	}
	if vdl.After(budget) {
		c.violate("release of %q (root %q): virtual deadline %v after budget %v with slack %v >= 0",
			t.Name, root.Name, vdl, budget, slack)
	}
	if !c.allowEarlyVDL && vdl.Before(t.Arrival) {
		c.violate("release of %q (root %q): virtual deadline %v before release %v with slack %v >= 0",
			t.Name, root.Name, vdl, t.Arrival, slack)
	}
}

// Finish runs the end-of-simulation conservation check: every submitted
// item must have resolved to done or aborted, except items stranded on a
// node that is down at the end of the run.
func (c *refChecker) Finish() {
	downNode := make(map[int]bool)
	for _, n := range c.nodes {
		if n.Down() {
			downNode[n.ID()] = true
		}
	}
	for it, id := range c.waiting {
		if downNode[id] {
			continue
		}
		c.violate("conservation: item %q still waiting at node%d after drain", it.Task.Name, id)
	}
	for it, id := range c.serving {
		c.violate("conservation: item %q still in service at node%d after drain", it.Task.Name, id)
	}
}
