package scenario

import (
	"fmt"
	"slices"

	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/task"
)

// maxViolations caps how many violations a checker records; a broken
// invariant in a long run would otherwise flood memory with millions of
// identical reports.
const maxViolations = 32

// Checker is the always-on invariant monitor of the scenario harness. It
// observes every node scheduling event and every process-manager deadline
// assignment and records violations of the simulator's structural
// invariants:
//
//   - event times never go backwards;
//   - a node never serves more items than it has servers, and never
//     starts service while crashed;
//   - every service start respects the node's queue policy — no waiting
//     item strictly outranks the one chosen (EDF order, GF band first);
//   - every assigned virtual deadline is concrete and, while the
//     assignment still has non-negative slack, never later than the
//     budget it was decomposed from (budgets chain down from the root's
//     real deadline) nor — unless the strategy moves deadlines before
//     the release instant by design (GF-delta) — in the past;
//   - conservation: every submitted item is eventually finished or
//     aborted (items stranded on a node that is down at the end of the
//     run are tolerated — nothing can serve them).
//
// All callbacks run on the single simulation goroutine.
//
// The state is dense so the always-on checker stays cheap at fleet
// scale: per-node state lives in a slice indexed by node id, per-item
// state in slices indexed by the item's node-assigned slot
// (node.Item.Slot), and no callback touches a map. Both grow on demand.
// Walks follow node id then enqueue order for waiting items, and home
// node id then slot for items in service, so the violation list is the
// same on every run.
type Checker struct {
	allowEarlyVDL bool

	nodes []*node.Node
	at    []nodeState   // by node id
	items [][]itemState // by item home node id, then slot

	last       simtime.Time
	violations []string
	dropped    int // violations beyond maxViolations
}

// nodeState is the checker's view of one node.
type nodeState struct {
	inService int

	// waiting indexes the waiting items by node, in enqueue order, so the
	// queue-policy check in OnStart scans one node's queue instead of
	// every waiting item in the fleet — the difference between O(queue)
	// and O(fleet) per dispatch, which is what lets the checker stay
	// always-on at 10k+ nodes. An item re-enqueued at another node while
	// still waiting here stays listed here as a stray (the checker has
	// already reported it); each item is listed at most once per node.
	waiting []*node.Item
}

// itemState is the checker's view of one item. Waiting and serving are
// independent: an item enqueued while in service is both (after the
// violation is reported).
type itemState struct {
	it      *node.Item // the item, once started (for the drain report)
	waitAt  int        // node id + 1 while waiting; 0 = not waiting
	serveAt int        // node id + 1 while in service; 0 = not in service
	stray   bool       // may be listed in a node's waiting list other than waitAt's
}

var _ node.Observer = (*Checker)(nil)

// NewChecker returns a checker; allowEarlyVDL disables the
// deadline-not-before-release check (needed for GF-delta).
func NewChecker(allowEarlyVDL bool) *Checker {
	return &Checker{allowEarlyVDL: allowEarlyVDL}
}

// node returns the state of node id.
func (c *Checker) node(id int) *nodeState {
	if id >= len(c.at) {
		c.at = grow(c.at, id+1)
	}
	return &c.at[id]
}

// item returns the state of it, keyed by its slot. Every item a node
// reports has been submitted, so its slot is assigned.
func (c *Checker) item(it *node.Item) *itemState {
	home, slot := it.Slot()
	if home >= len(c.items) {
		c.items = grow(c.items, home+1)
	}
	if slot >= len(c.items[home]) {
		c.items[home] = grow(c.items[home], slot+1)
	}
	return &c.items[home][slot]
}

// grow returns s extended with zero values to length n > len(s).
func grow[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// wait records it (whose state is st) as waiting at node id, listing it
// there unless it is listed already.
func (c *Checker) wait(it *node.Item, st *itemState, id int) {
	q := &c.node(id).waiting
	switch {
	case st.waitAt == id+1:
		// Already listed here.
	case st.waitAt == 0 && !st.stray:
		*q = append(*q, it)
	default:
		if !slices.Contains(*q, it) {
			*q = append(*q, it)
		}
	}
	if st.waitAt != 0 && st.waitAt != id+1 {
		st.stray = true
	}
	st.waitAt = id + 1
}

// unwait removes it from the waiting set; a no-op if it was not waiting.
func (c *Checker) unwait(it *node.Item, st *itemState) {
	if st.waitAt == 0 {
		return
	}
	q := &c.at[st.waitAt-1].waiting
	i := slices.Index(*q, it) // listed there since wait
	*q = slices.Delete(*q, i, i+1)
	st.waitAt = 0
}

// Bind attaches the nodes under observation, for the final conservation
// check's down-node tolerance, and sizes the per-node state for them up
// front. Each node's waiting list and item rows grow on demand, as for
// nodes the checker meets without Bind.
func (c *Checker) Bind(nodes []*node.Node) {
	c.nodes = nodes
	top := -1
	for _, n := range nodes {
		top = max(top, n.ID())
	}
	if top >= len(c.at) {
		c.at = grow(c.at, top+1)
	}
	if top >= len(c.items) {
		c.items = grow(c.items, top+1)
	}
}

// Violations returns the recorded invariant violations in order.
func (c *Checker) Violations() []string {
	out := make([]string, len(c.violations))
	copy(out, c.violations)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations", c.dropped))
	}
	return out
}

func (c *Checker) violate(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// clock checks monotone event time.
func (c *Checker) clock(at simtime.Time) {
	if at.Before(c.last) {
		c.violate("time went backwards: %v after %v", at, c.last)
	}
	c.last = at
}

// OnEnqueue implements node.Observer.
func (c *Checker) OnEnqueue(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	st := c.item(it)
	if st.waitAt != 0 {
		c.violate("t=%v node%d: item %q enqueued while already waiting", at, n.ID(), it.Task.Name)
	}
	if st.serveAt != 0 {
		c.violate("t=%v node%d: item %q enqueued while in service", at, n.ID(), it.Task.Name)
	}
	if it.Task.VirtualDeadline.IsNever() {
		c.violate("t=%v node%d: item %q enqueued without a virtual deadline", at, n.ID(), it.Task.Name)
	}
	c.wait(it, st, n.ID())
}

// OnStart implements node.Observer.
func (c *Checker) OnStart(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	if n.Down() {
		c.violate("t=%v node%d: service started while node is down", at, n.ID())
	}
	st := c.item(it)
	if st.waitAt == 0 {
		c.violate("t=%v node%d: item %q started without being enqueued", at, n.ID(), it.Task.Name)
	}
	c.unwait(it, st)
	// Queue-policy order: nothing left waiting at this node may strictly
	// outrank the item just chosen.
	ns := c.node(n.ID())
	pol := n.Policy()
	for _, w := range ns.waiting {
		if pol.Less(w, it) {
			c.violate("t=%v node%d: started %q but waiting %q outranks it under %s",
				at, n.ID(), it.Task.Name, w.Task.Name, pol.Name())
		}
	}
	st.it, st.serveAt = it, n.ID()+1
	ns.inService++
	if ns.inService > n.Servers() {
		c.violate("t=%v node%d: %d items in service but only %d servers",
			at, n.ID(), ns.inService, n.Servers())
	}
}

// OnFinish implements node.Observer.
func (c *Checker) OnFinish(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	st := c.item(it)
	if st.serveAt == 0 {
		c.violate("t=%v node%d: item %q finished without being in service", at, n.ID(), it.Task.Name)
		return
	}
	st.serveAt = 0
	c.node(n.ID()).inService--
}

// OnAbort implements node.Observer.
func (c *Checker) OnAbort(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	st := c.item(it)
	if st.serveAt != 0 {
		st.serveAt = 0
		c.node(n.ID()).inService--
		return
	}
	if st.waitAt != 0 {
		c.unwait(it, st)
		return
	}
	c.violate("t=%v node%d: item %q aborted but was neither waiting nor in service", at, n.ID(), it.Task.Name)
}

// OnPreempt implements node.Observer.
func (c *Checker) OnPreempt(n *node.Node, it *node.Item, at simtime.Time) {
	c.clock(at)
	st := c.item(it)
	if st.serveAt == 0 {
		c.violate("t=%v node%d: item %q preempted without being in service", at, n.ID(), it.Task.Name)
		return
	}
	st.serveAt = 0
	c.node(n.ID()).inService--
	c.wait(it, st, n.ID())
}

// OnRelease is a procmgr.ReleaseHook checking every deadline assignment:
// t has just been released against budget; root is its global task.
func (c *Checker) OnRelease(t, root *task.Task, budget simtime.Time) {
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
func (c *Checker) Finish() {
	down := make([]bool, len(c.at))
	for _, n := range c.nodes {
		if n.ID() < len(down) && n.Down() {
			down[n.ID()] = true
		}
	}
	for id := range c.at {
		if down[id] {
			continue
		}
		for _, it := range c.at[id].waiting {
			if c.item(it).waitAt == id+1 { // skip strays
				c.violate("conservation: item %q still waiting at node%d after drain", it.Task.Name, id)
			}
		}
	}
	for _, rows := range c.items {
		for _, st := range rows {
			if st.serveAt != 0 {
				c.violate("conservation: item %q still in service at node%d after drain", st.it.Task.Name, st.serveAt-1)
			}
		}
	}
}
