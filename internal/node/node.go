// Package node models one processing component of the distributed system
// (Section 3.2): a single non-preemptive server fed by a deadline-ordered
// queue, managed by an independent local real-time scheduler.
//
// Nodes know nothing about global tasks. They see only Items — simple
// subtasks or local tasks with a virtual deadline (and possibly a GF
// priority boost) — and serve one at a time, choosing the next by the
// configured queue policy. This independence is a core premise of the
// paper: there is no global scheduler and nodes do not collaborate.
//
// Two abortion mechanisms from Section 7.3 are supported:
//
//   - Process-manager abortion: the owner calls Remove, which discards a
//     queued item or kills the one in service.
//   - Local-scheduler abortion (WithLocalAbort): at dispatch the node
//     discards any item whose *virtual* deadline has already passed and
//     notifies the owner through the item's Hooks.ItemLocalAbort.
//
// # Hot path
//
// The waiting queue is an inline generation-tagged 4-ary indexed min-heap
// in the style of the internal/des calendar: no container/heap interface
// boxing, the built-in policies (EDF, FIFO, LLF, SJF) compare through a
// devirtualized switch (custom policies keep the interface slow path),
// the earliest item peeks in O(1), and abort-removal is O(log n) through
// the item's heap index. Items are pooled per node (AcquireItem /
// RecycleItem) with generation-tagged ItemRef handles, and service
// completions are scheduled through des.AfterCall with a shared
// package-level callback, so the steady submit/serve/complete cycle
// performs no heap allocation. docs/PERFORMANCE.md describes the design
// and the determinism constraints it honors.
package node

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Errors returned by Submit.
var (
	ErrNotSimple   = errors.New("node: only simple subtasks can be submitted")
	ErrResubmitted = errors.New("node: item already submitted")
)

// ItemState tracks an item through its life cycle at a node.
type ItemState int

// Item states. The zero ItemState marks a recycled pool item and is never
// observable through a live item.
const (
	StateNew ItemState = iota + 1
	StateQueued
	StateServing
	StateDone
	StateAborted
)

// String returns the state name.
func (s ItemState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateQueued:
		return "queued"
	case StateServing:
		return "serving"
	case StateDone:
		return "done"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("ItemState(%d)", int(s))
	}
}

// Hooks receives an item's life-cycle callbacks. The owner stores one
// pooled record per item and the node calls through the interface, so no
// per-item closures are built.
type Hooks interface {
	// ItemDone is invoked when service completes, before the node picks
	// its next item.
	ItemDone(it *Item, at simtime.Time)
	// ItemLocalAbort is invoked when the local scheduler discards the
	// item because its virtual deadline expired (local-abort mode only).
	ItemLocalAbort(it *Item, at simtime.Time)
}

// Item is one unit of work submitted to a node: a local task or a simple
// subtask of a global task. The embedded task carries the timing
// attributes (virtual deadline, priority boost, execution time).
//
// Items come from two places: NewItem allocates a fresh one (simple,
// garbage-collected — fine for tests and demos), and Node.AcquireItem
// recycles one from the node's pool (the process manager's hot path).
// Pooled items are generation-tagged: RecycleItem bumps the generation,
// so any ItemRef taken earlier goes stale and can never reach the item's
// next incarnation.
type Item struct {
	Task *task.Task

	// Hooks receives the item's completion and local-abort callbacks.
	// Optional.
	Hooks Hooks

	state     ItemState
	gen       uint32
	seq       uint64
	index     int // heap index; -1 when not queued
	service   des.Event
	owner     *Node
	remaining simtime.Duration // unexecuted service demand
	startedAt simtime.Time     // start of the current service stretch
	home      int              // id of the node that assigned the slot
	slot      int              // dense index at home, plus one; 0 = unassigned
}

// NewItem wraps a simple subtask for submission.
func NewItem(t *task.Task) *Item {
	return &Item{Task: t, state: StateNew, index: -1, remaining: t.Exec}
}

// State returns the item's current life-cycle state.
func (it *Item) State() ItemState { return it.state }

// Generation returns the item's pool generation. It increments each time
// the item is recycled; observers that cache per-item state must key it
// by (item, generation) so a recycled item is not mistaken for its
// previous incarnation.
func (it *Item) Generation() uint32 { return it.gen }

// Slot returns the item's dense index: the id of the node it was first
// submitted to (home) and its ordinal among the items that node has
// indexed (slot). The pair is assigned at the first Submit and stays
// with the item across RecycleItem, so a node's pooled items occupy
// slots 0 up to its pool's high-water mark and an observer can keep
// per-item state in slices instead of maps. Pairs are unique among
// items submitted to nodes with distinct ids. Before its first Submit an
// item reports (-1, -1).
func (it *Item) Slot() (home, slot int) {
	if it.slot == 0 {
		return -1, -1
	}
	return it.home, it.slot - 1
}

// Ref returns a generation-tagged handle to the item. The handle resolves
// to the item only while this incarnation is live; after RecycleItem it
// degrades to nil, so a stale handle can never touch somebody else's
// item.
func (it *Item) Ref() ItemRef { return ItemRef{it: it, gen: it.gen} }

// ItemRef is a by-value generation-tagged handle to an Item (see
// Item.Ref). The zero ItemRef resolves to nil.
type ItemRef struct {
	it  *Item
	gen uint32
}

// Item resolves the handle, or returns nil when the handle is zero or
// stale (the item has been recycled since the handle was taken).
func (r ItemRef) Item() *Item {
	if r.it == nil || r.it.gen != r.gen {
		return nil
	}
	return r.it
}

// Observer receives scheduling events from a node, e.g. for tracing or
// visualisation. All callbacks run synchronously on the simulation
// goroutine; implementations must be cheap. Any method may be a no-op.
type Observer interface {
	// OnEnqueue fires when an item joins the waiting queue.
	OnEnqueue(n *Node, it *Item, at simtime.Time)
	// OnStart fires when service of an item begins (or resumes after
	// preemption).
	OnStart(n *Node, it *Item, at simtime.Time)
	// OnFinish fires when service completes.
	OnFinish(n *Node, it *Item, at simtime.Time)
	// OnAbort fires when an item is discarded (local abort or removal),
	// including the killing of an in-service item.
	OnAbort(n *Node, it *Item, at simtime.Time)
	// OnPreempt fires when an in-service item is suspended.
	OnPreempt(n *Node, it *Item, at simtime.Time)
}

// Policy orders the waiting queue. Less reports whether a should be served
// before b.
//
// The built-in policies (EDF, FIFO, LLF, SJF) are recognised by type at
// node construction and compared inline on the hot path; a custom Policy
// still works through the interface. Every ordering must be total — the
// built-ins tie-break on submission order — so the dispatch sequence is
// independent of the heap's internal layout.
type Policy interface {
	Less(a, b *Item) bool
	Name() string
}

// EDF is the earliest-deadline-first policy of the paper's footnote 3:
// tasks are ordered by increasing virtual deadline, with the GF priority
// band ahead of everything else and FIFO tie-breaking. EDF within each
// band preserves the paper's "servicing order is preserved individually
// within the classes of globals and locals" property.
type EDF struct{}

// Less implements Policy.
func (EDF) Less(a, b *Item) bool {
	if a.Task.PriorityBoost != b.Task.PriorityBoost {
		return a.Task.PriorityBoost
	}
	if a.Task.VirtualDeadline != b.Task.VirtualDeadline {
		return a.Task.VirtualDeadline.Before(b.Task.VirtualDeadline)
	}
	return a.seq < b.seq
}

// Name implements Policy.
func (EDF) Name() string { return "EDF" }

// FIFO serves items in arrival order, ignoring deadlines. It exists as an
// ablation baseline: it shows how much of the paper's result depends on
// deadline-aware local scheduling at all.
type FIFO struct{}

// Less implements Policy.
func (FIFO) Less(a, b *Item) bool { return a.seq < b.seq }

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// policyKind tags the built-in policies for devirtualized comparison.
type policyKind uint8

const (
	policyCustom policyKind = iota
	policyEDF
	policyFIFO
	policyLLF
	policySJF
)

// kindOf recognises the built-in policies by concrete type.
func kindOf(p Policy) policyKind {
	switch p.(type) {
	case EDF:
		return policyEDF
	case FIFO:
		return policyFIFO
	case LLF:
		return policyLLF
	case SJF:
		return policySJF
	default:
		return policyCustom
	}
}

// Node is a single-server processing component.
type Node struct {
	id         int
	eng        *des.Engine
	policy     Policy
	pkind      policyKind
	localAbort bool
	preemptive bool
	observer   Observer

	queue   []*Item // inline 4-ary indexed min-heap, ordered by policy
	serving []*Item // in-service items in dispatch order (len <= servers)
	pool    []*Item // recycled items (AcquireItem / RecycleItem)
	scratch []*Item // reusable snapshot buffer for Crash/SetRate
	servers int
	seq     uint64
	slots   int // item slots handed out (see Item.Slot)

	// Fault-injection state (scenario harness): a crashed node stops
	// dispatching, and a degraded node serves at rate work units per time
	// unit (1 = nominal).
	down bool
	rate float64

	busy    simtime.Duration
	served  uint64
	aborted uint64
	crashes uint64

	// Time-weighted queue-length accounting (waiting items only).
	qlenIntegral float64      // ∫ len(queue) dt
	qlenSince    simtime.Time // last instant the integral was updated
}

// noteQueueChange folds the elapsed stretch at the previous queue length
// into the integral. Call it BEFORE any change to len(n.queue).
func (n *Node) noteQueueChange() {
	now := n.eng.Now()
	n.qlenIntegral += float64(float64(len(n.queue)) * float64(now.Sub(n.qlenSince)))
	n.qlenSince = now
}

// MeanQueueLength returns the time-averaged number of waiting items
// (excluding the one in service) since the start of the simulation.
func (n *Node) MeanQueueLength() float64 {
	now := n.eng.Now()
	if now <= 0 {
		return 0
	}
	total := n.qlenIntegral + float64(float64(len(n.queue))*float64(now.Sub(n.qlenSince)))
	return total / float64(now)
}

// Option configures a Node.
type Option func(*Node)

// WithPolicy selects the queue policy (default EDF).
func WithPolicy(p Policy) Option {
	return func(n *Node) { n.policy = p }
}

// WithLocalAbort makes the local scheduler discard items whose virtual
// deadline has passed when they reach the head of the queue (Section 7.3,
// abortion case 2).
func WithLocalAbort() Option {
	return func(n *Node) { n.localAbort = true }
}

// WithPreemption makes the server preemptive: a newly submitted item that
// outranks the one in service suspends it (work already done is kept and
// the item resumes later with its residual demand). The paper's model is
// non-preemptive; this option supports the preemption ablation.
func WithPreemption() Option {
	return func(n *Node) { n.preemptive = true }
}

// WithObserver attaches a scheduling-event observer (e.g. a tracer).
func WithObserver(obs Observer) Option {
	return func(n *Node) { n.observer = obs }
}

// WithServers gives the node c identical servers sharing one queue (an
// M/M/c station). The paper's components are single servers (c = 1, the
// default); multi-server nodes extend the model to pooled resources.
// Combining WithServers(c > 1) with WithPreemption is not supported.
func WithServers(c int) Option {
	return func(n *Node) { n.servers = c }
}

// WithRate sets the node's baseline service rate (work units per time
// unit; default 1, the paper's homogeneous model). Heterogeneous fleets
// give each node its own baseline; SetRate still changes the rate
// mid-run for fault injection.
func WithRate(r float64) Option {
	return func(n *Node) { n.rate = r }
}

// New returns a node attached to the simulation engine. It panics on an
// invalid option combination (a programming error, caught at setup).
func New(id int, eng *des.Engine, opts ...Option) *Node {
	n := &Node{id: id, eng: eng, policy: EDF{}, servers: 1, rate: 1}
	for _, o := range opts {
		o(n)
	}
	n.pkind = kindOf(n.policy)
	if n.servers < 1 {
		panic(fmt.Sprintf("node: invalid server count %d", n.servers))
	}
	if n.rate <= 0 {
		panic(fmt.Sprintf("node: invalid service rate %v", n.rate))
	}
	if n.preemptive && n.servers > 1 {
		panic("node: preemption is only supported for single-server nodes")
	}
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() int { return n.id }

// QueueLen returns the number of waiting items (excluding the one in
// service).
func (n *Node) QueueLen() int { return len(n.queue) }

// Busy reports whether any server is occupied.
func (n *Node) Busy() bool { return len(n.serving) > 0 }

// Servers returns the number of servers at this node.
func (n *Node) Servers() int { return n.servers }

// Served returns the number of items whose service completed.
func (n *Node) Served() uint64 { return n.served }

// AbortedCount returns the number of items discarded at this node (by
// either abortion mechanism).
func (n *Node) AbortedCount() uint64 { return n.aborted }

// BusyTime returns the cumulative service time delivered across all
// servers, including the elapsed parts of items currently in service.
func (n *Node) BusyTime() simtime.Duration {
	total := n.busy
	now := n.eng.Now()
	for _, it := range n.serving {
		total += now.Sub(it.startedAt)
	}
	return total
}

// Utilization returns BusyTime divided by elapsed capacity
// (servers x simulated time).
func (n *Node) Utilization() float64 {
	now := n.eng.Now()
	if now <= 0 {
		return 0
	}
	return float64(n.BusyTime()) / (float64(now) * float64(n.servers))
}

// Policy returns the queue policy the node orders its waiting items by.
func (n *Node) Policy() Policy { return n.policy }

// Rate returns the current service rate (work units per time unit;
// 1 = nominal speed).
func (n *Node) Rate() float64 { return n.rate }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Crashes returns the number of Crash calls that took the node down.
func (n *Node) Crashes() uint64 { return n.crashes }

// AcquireItem returns an item wrapping t, recycled from the node's pool
// when one is free. Pair it with RecycleItem once the item has resolved
// and no references to it remain; the steady acquire/serve/recycle cycle
// then allocates nothing.
func (n *Node) AcquireItem(t *task.Task) *Item {
	var it *Item
	if k := len(n.pool); k > 0 {
		it = n.pool[k-1]
		n.pool[k-1] = nil
		n.pool = n.pool[:k-1]
	} else {
		it = &Item{}
	}
	it.Task = t
	it.state = StateNew
	it.index = -1
	it.remaining = t.Exec
	return it
}

// RecycleItem returns a resolved item to the node's pool. The item must
// not be queued or in service, and the caller must hold the only live
// references; generation-tagged ItemRef handles taken earlier go stale
// at this point. Recycling an already-recycled item panics (a
// double-release is a programming error).
func (n *Node) RecycleItem(it *Item) {
	if it == nil {
		return
	}
	switch it.state {
	case StateQueued, StateServing:
		panic(fmt.Sprintf("node: recycling a live item (%v)", it.state))
	case 0:
		panic("node: item recycled twice")
	}
	it.gen++
	it.state = 0
	it.Task = nil
	it.Hooks = nil
	it.service = des.Event{}
	it.remaining = 0
	n.pool = append(n.pool, it)
}

// SetRate changes the node's service rate to r > 0 (fault injection:
// r < 1 models a degraded component, r > 1 a fast one). Items in service
// keep the work they have completed so far; their completion is
// rescheduled for the residual demand at the new rate. Rate changes are
// deterministic: they take effect at the current simulated instant.
func (n *Node) SetRate(r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("node: invalid service rate %v", r))
	}
	if r == n.rate {
		return
	}
	now := n.eng.Now()
	for _, it := range n.servingInOrder() {
		n.eng.Cancel(it.service)
		elapsed := now.Sub(it.startedAt)
		it.remaining -= elapsed.Scale(n.rate)
		if it.remaining < 0 {
			it.remaining = 0
		}
		n.busy += elapsed
		it.startedAt = now
		ev, err := n.eng.AfterCall(it.remaining.Scale(1/r), serviceDone, it)
		if err != nil {
			panic(fmt.Sprintf("node: reschedule service at new rate: %v", err))
		}
		it.service = ev
	}
	n.rate = r
}

// servingInOrder snapshots the in-service items in submission order into
// the node's scratch buffer. Fault injection must not iterate n.serving
// directly: it mutates the slice mid-loop, and the order of cancellations
// and re-insertions is visible in the event trace, which must be
// reproducible — hence the explicit sort by submission sequence.
func (n *Node) servingInOrder() []*Item {
	n.scratch = append(n.scratch[:0], n.serving...)
	out := n.scratch
	// Insertion sort by seq: at most a handful of servers.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].seq < out[j-1].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// removeServing takes it out of the in-service list, preserving dispatch
// order.
func (n *Node) removeServing(it *Item) {
	for i, v := range n.serving {
		if v == it {
			last := len(n.serving) - 1
			copy(n.serving[i:], n.serving[i+1:])
			n.serving[last] = nil
			n.serving = n.serving[:last]
			return
		}
	}
}

// Crash takes the node down (fault injection). Items in service lose the
// progress of their current service stretch and return to the waiting
// queue (the server was occupied, so the lost stretch still counts as
// busy time); queued items stay queued. No service happens until Restart.
// Crashing a crashed node is a no-op.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.crashes++
	now := n.eng.Now()
	for _, it := range n.servingInOrder() {
		n.eng.Cancel(it.service)
		it.service = des.Event{}
		n.busy += now.Sub(it.startedAt)
		it.state = StateQueued
		n.noteQueueChange()
		n.qPush(it)
		n.removeServing(it)
		if n.observer != nil {
			n.observer.OnPreempt(n, it, now)
		}
	}
}

// Restart brings a crashed node back up and resumes dispatching.
// Restarting a live node is a no-op.
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.dispatch()
}

// Submit hands an item to the node's scheduler. The item must wrap a
// simple subtask and must not be live at any node.
func (n *Node) Submit(it *Item) error {
	if it == nil || it.Task == nil {
		return fmt.Errorf("%w: nil item", ErrNotSimple)
	}
	if !it.Task.IsSimple() {
		return fmt.Errorf("%w: %q is %v", ErrNotSimple, it.Task.Name, it.Task.Kind)
	}
	if it.state == StateQueued || it.state == StateServing {
		return fmt.Errorf("%w: %q", ErrResubmitted, it.Task.Name)
	}
	if it.slot == 0 {
		n.slots++
		it.home, it.slot = n.id, n.slots
	}
	it.state = StateQueued
	it.seq = n.seq
	it.owner = n
	n.seq++
	n.noteQueueChange()
	n.qPush(it)
	if n.observer != nil {
		n.observer.OnEnqueue(n, it, n.eng.Now())
	}
	if n.preemptive {
		if cur := n.soleServing(); cur != nil && n.less(it, cur) {
			n.preempt(cur)
		}
	}
	n.dispatch()
	return nil
}

// soleServing returns the single in-service item (preemption implies a
// single server), or nil when idle.
func (n *Node) soleServing() *Item {
	if len(n.serving) > 0 {
		return n.serving[0]
	}
	return nil
}

// preempt suspends the item in service, preserving its residual demand,
// and returns it to the queue.
func (n *Node) preempt(cur *Item) {
	n.eng.Cancel(cur.service)
	cur.service = des.Event{}
	elapsed := n.eng.Now().Sub(cur.startedAt)
	cur.remaining -= elapsed.Scale(n.rate)
	if cur.remaining < 0 {
		cur.remaining = 0
	}
	n.busy += elapsed
	cur.state = StateQueued
	n.noteQueueChange()
	n.qPush(cur)
	n.removeServing(cur)
	if n.observer != nil {
		n.observer.OnPreempt(n, cur, n.eng.Now())
	}
}

// Remove takes a live item away from the node: a queued item is discarded,
// an in-service item is killed and the server freed. It reports whether
// the item was found. This implements process-manager abortion.
func (n *Node) Remove(it *Item) bool {
	if it == nil || it.owner != n {
		return false
	}
	switch it.state {
	case StateQueued:
		n.noteQueueChange()
		n.qRemove(it.index)
		it.state = StateAborted
		n.aborted++
		if n.observer != nil {
			n.observer.OnAbort(n, it, n.eng.Now())
		}
		return true
	case StateServing:
		n.eng.Cancel(it.service)
		it.service = des.Event{}
		it.state = StateAborted
		n.aborted++
		n.busy += n.eng.Now().Sub(it.startedAt)
		n.removeServing(it)
		if n.observer != nil {
			n.observer.OnAbort(n, it, n.eng.Now())
		}
		n.dispatch()
		return true
	default:
		return false
	}
}

// serviceDone is the shared completion callback scheduled for every
// service: a package-level function plus the item as argument, so
// dispatch never allocates a closure.
func serviceDone(x any) {
	it := x.(*Item)
	it.owner.complete(it)
}

// dispatch starts service on the best waiting items while servers are
// idle. A crashed node dispatches nothing until Restart.
func (n *Node) dispatch() {
	if n.down {
		return
	}
	for len(n.serving) < n.servers && len(n.queue) > 0 {
		n.noteQueueChange()
		it := n.qPop()
		now := n.eng.Now()
		if n.localAbort && it.Task.VirtualDeadline.Before(now) {
			// Local-scheduler abortion: the deadline presented to us has
			// already passed; drop the task and tell the owner.
			it.state = StateAborted
			n.aborted++
			if n.observer != nil {
				n.observer.OnAbort(n, it, now)
			}
			if it.Hooks != nil {
				it.Hooks.ItemLocalAbort(it, now)
			}
			continue
		}
		it.state = StateServing
		n.serving = append(n.serving, it)
		it.startedAt = now
		if n.observer != nil {
			n.observer.OnStart(n, it, now)
		}
		ev, err := n.eng.AfterCall(it.remaining.Scale(1/n.rate), serviceDone, it)
		if err != nil {
			// Exec is validated non-negative at construction; a scheduling
			// failure here is a programming error in the kernel.
			panic(fmt.Sprintf("node: schedule service completion: %v", err))
		}
		it.service = ev
	}
}

// complete finishes service of it and picks the next item.
func (n *Node) complete(it *Item) {
	now := n.eng.Now()
	it.state = StateDone
	it.service = des.Event{}
	it.Task.Finish = now
	n.busy += now.Sub(it.startedAt)
	it.remaining = 0
	n.served++
	n.removeServing(it)
	if n.observer != nil {
		n.observer.OnFinish(n, it, now)
	}
	if it.Hooks != nil {
		it.Hooks.ItemDone(it, now)
	}
	n.dispatch()
}

// EndService completes the service of an in-service item now, as if its
// service demand had just been met: the owner's ItemDone fires and the
// node picks its next item. It reports false, doing nothing, when it is
// not in service at n — for instance because it was removed since. An
// owner that runs an item's work outside the model (the live runtime)
// gives the item an unbounded execution time and ends it here.
func (n *Node) EndService(it *Item) bool {
	if it == nil || it.owner != n || it.state != StateServing {
		return false
	}
	n.eng.Cancel(it.service)
	n.complete(it)
	return true
}

// --- waiting-queue heap -----------------------------------------------------
//
// The waiting queue is a 4-ary indexed min-heap over the node's policy
// order. Every policy order is total (the built-ins tie-break on the
// submission sequence), so the pop sequence is a property of the order
// alone — independent of heap arity or the internal layout — which keeps
// dispatch traces bit-identical to the previous container/heap
// implementation.

// less compares two queued items in the node's policy order, inlining the
// built-in policies to avoid the interface call per comparison.
func (n *Node) less(a, b *Item) bool {
	switch n.pkind {
	case policyEDF:
		ta, tb := a.Task, b.Task
		if ta.PriorityBoost != tb.PriorityBoost {
			return ta.PriorityBoost
		}
		if ta.VirtualDeadline != tb.VirtualDeadline {
			return ta.VirtualDeadline.Before(tb.VirtualDeadline)
		}
		return a.seq < b.seq
	case policyFIFO:
		return a.seq < b.seq
	case policyLLF:
		ta, tb := a.Task, b.Task
		if ta.PriorityBoost != tb.PriorityBoost {
			return ta.PriorityBoost
		}
		la := ta.VirtualDeadline.Sub(0) - a.remaining
		lb := tb.VirtualDeadline.Sub(0) - b.remaining
		if la != lb {
			return la < lb
		}
		return a.seq < b.seq
	case policySJF:
		if a.remaining != b.remaining {
			return a.remaining < b.remaining
		}
		return a.seq < b.seq
	default:
		return n.policy.Less(a, b)
	}
}

// qPush inserts it into the waiting queue.
func (n *Node) qPush(it *Item) {
	n.queue = append(n.queue, it)
	n.siftUp(len(n.queue)-1, it)
}

// qPop removes and returns the best waiting item.
func (n *Node) qPop() *Item {
	q := n.queue
	top := q[0]
	last := len(q) - 1
	moved := q[last]
	q[last] = nil
	n.queue = q[:last]
	if last > 0 {
		n.queue[0] = moved
		moved.index = 0
		n.siftDown(0)
	}
	top.index = -1
	return top
}

// qRemove removes the item at heap index i (abort-removal through
// Item.index).
func (n *Node) qRemove(i int) *Item {
	q := n.queue
	last := len(q) - 1
	it := q[i]
	moved := q[last]
	q[last] = nil
	n.queue = q[:last]
	if i < last {
		n.queue[i] = moved
		moved.index = i
		n.siftDown(i)
		if moved.index == i {
			n.siftUp(i, moved)
		}
	}
	it.index = -1
	return it
}

// siftUp moves it (currently at index i) toward the root to its place.
func (n *Node) siftUp(i int, it *Item) {
	q := n.queue
	for i > 0 {
		p := (i - 1) >> 2
		if !n.less(it, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = it
	it.index = i
}

// siftDown sinks the item at index i to its place.
func (n *Node) siftDown(i int) {
	q := n.queue
	nn := len(q)
	it := q[i]
	for {
		c := i<<2 + 1
		if c >= nn {
			break
		}
		m := c
		end := c + 4
		if end > nn {
			end = nn
		}
		for j := c + 1; j < end; j++ {
			if n.less(q[j], q[m]) {
				m = j
			}
		}
		if !n.less(q[m], it) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = it
	it.index = i
}
