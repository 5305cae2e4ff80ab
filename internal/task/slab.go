package task

import (
	"fmt"
	"unsafe"

	"repro/internal/simtime"
)

// slabChunkBytes is the largest small-object size class of the Go
// allocator (32 KiB). A chunk is rounded up to a size class, so a chunk
// whose bytes stop well short of one pays for the gap: 256 tasks of 120
// bytes (30,720 B) occupy 32,768 B, as much as 256 tasks allocated one by
// one in the 128-byte class, and chunking them saves no memory at all.
const slabChunkBytes = 32 << 10

// slabChunk is the number of tasks per chunk: as many as fit in
// slabChunkBytes, 315 for a 104-byte Task (32,760 B).
const slabChunk = slabChunkBytes / int(unsafe.Sizeof(Task{}))

// Slab hands out tasks and takes them back once they are done with, so a
// steady stream of tasks stops allocating: a process manager owns one, the
// workload draws from it, and the manager reclaims each task right after
// its final outcome callback.
//
// Leaves (local tasks, tree subtasks and DAG vertices) come from
// fixed-size chunks, one allocation per chunk instead of one per task. A
// leaf holds no pointer to another task, so a chunk never keeps another
// chunk alive. Composites are allocated one by one, never in a chunk: a
// composite in a chunk would pin the chunks holding its children, which
// pin the composites they hold, in a chain that spans the whole run.
//
// Reclaim takes back every task of a tree that came from a slab. A
// reclaimed task is poisoned (Kind 0, Node -1) until it is drawn again, so
// a read through a stale pointer panics on a node index or shows in the
// outputs, and reclaiming it a second time panics. A reclaimed composite
// keeps its Children array for the next composite. Heap-built tasks are
// never taken. A task that is never reclaimed is freed by the garbage
// collector with its chunk, once none of the chunk's tasks is referenced.
//
// DAGs come from the slab too (Dag) and go back whole (ReclaimDag): the
// vertex tasks to the leaf list, and the Dag record, with its accounting
// root, to a list of its own, keeping its vertex records, adjacency
// arena, topological order, root children and decomposition storage for
// the next DAG drawn. Conditional DAGs do the same (CondDag,
// ReclaimCondDag), keeping their branch-probability storage as well.
//
// A nil *Slab is valid: it allocates every task on its own and reclaims
// nothing. A Slab is not safe for concurrent use.
type Slab struct {
	free   []Task     // unused tail of the current chunk
	leaves []*Task    // reclaimed leaves, drawn before the chunk
	comps  []*Task    // reclaimed composites, each keeping its Children array
	dags   []*Dag     // reclaimed DAGs, each keeping its storage
	conds  []*CondDag // reclaimed conditional DAGs, without their Dag
}

// leaf returns a pristine leaf, a reclaimed one when there is one, else the
// next task of the current chunk. A nil slab allocates the task alone.
func (s *Slab) leaf(name string, kind Kind, node int, ex, pex simtime.Duration) *Task {
	var t *Task
	switch {
	case s == nil:
		t = new(Task)
	case len(s.leaves) > 0:
		k := len(s.leaves) - 1
		t = s.leaves[k]
		s.leaves[k] = nil
		s.leaves = s.leaves[:k]
	default:
		if len(s.free) == 0 {
			s.free = make([]Task, slabChunk)
		}
		t = &s.free[0]
		s.free = s.free[1:]
	}
	*t = pristine(name, kind, node, ex, pex)
	t.pooled = s != nil
	return t
}

// composite returns a pristine composite with n child slots, a reclaimed
// one when there is one; its Children array is reused when it holds n.
func (s *Slab) composite(name string, kind Kind, n int) *Task {
	var t *Task
	var ch []*Task
	if s != nil && len(s.comps) > 0 {
		k := len(s.comps) - 1
		t = s.comps[k]
		s.comps[k] = nil
		s.comps = s.comps[:k]
		ch = t.Children
	} else {
		t = new(Task)
	}
	if cap(ch) < n {
		ch = make([]*Task, n)
	}
	ch = ch[:n]
	*t = pristine(name, kind, 0, 0, 0)
	t.Children = ch
	t.pooled = s != nil
	return t
}

// pristine returns an unreleased task with the given static attributes:
// no arrival, and deadlines and finish time at Never.
func pristine(name string, kind Kind, node int, ex, pex simtime.Duration) Task {
	return Task{
		Name:            name,
		Kind:            kind,
		Node:            node,
		Exec:            ex,
		Pex:             pex,
		Finish:          simtime.Never,
		RealDeadline:    simtime.Never,
		VirtualDeadline: simtime.Never,
	}
}

// Simple is NewSimple drawing the task from the slab.
func (s *Slab) Simple(name string, node int, ex simtime.Duration) (*Task, error) {
	if ex < 0 {
		return nil, fmt.Errorf("%w: %v", ErrNegativeExec, ex)
	}
	return s.leaf(name, KindSimple, node, ex, ex), nil
}

// Composite returns a serial or parallel task drawn from the slab with n
// empty child slots, for the caller to fill before the task is used; a
// reclaimed composite's Children array is reused. It panics on any other
// kind or on n < 1, as a composite without children is no task.
func (s *Slab) Composite(name string, kind Kind, n int) *Task {
	if kind != KindSerial && kind != KindParallel {
		panic(fmt.Sprintf("task: composite of kind %v", kind))
	}
	if n < 1 {
		panic(ErrNoChildren)
	}
	return s.composite(name, kind, n)
}

// Clone is Task.Clone drawing the copy from the slab.
func (s *Slab) Clone(t *Task) *Task {
	if t.IsSimple() && len(t.Children) == 0 {
		return s.leaf(t.Name, t.Kind, t.Node, t.Exec, t.Pex)
	}
	c := s.composite(t.Name, t.Kind, len(t.Children))
	c.Node, c.Exec, c.Pex = t.Node, t.Exec, t.Pex
	for i, ch := range t.Children {
		c.Children[i] = s.Clone(ch)
	}
	return c
}

// Reclaim takes back every task of the tree rooted at t that came from a
// slab, for reuse by later draws; heap-built tasks of the tree are left as
// they are. The caller must hold the only references to the reclaimed
// tasks: each is poisoned at once. Reclaiming a task twice panics. A nil
// slab reclaims nothing.
func (s *Slab) Reclaim(t *Task) {
	if s == nil {
		return
	}
	for _, c := range t.Children {
		s.Reclaim(c)
	}
	if !t.pooled {
		return
	}
	if t.Kind == 0 {
		panic("task: task reclaimed twice")
	}
	if t.Kind == KindSimple && t.Children == nil {
		*t = Task{Node: -1, pooled: true}
		s.leaves = append(s.leaves, t)
		return
	}
	ch := t.Children[:cap(t.Children)]
	clear(ch)
	*t = Task{Children: ch[:0], Node: -1, pooled: true}
	s.comps = append(s.comps, t)
}

// Dag returns an empty DAG named name drawn from the slab, a reclaimed one
// when there is one. A nil slab allocates it (NewDag).
func (s *Slab) Dag(name string) *Dag {
	if s == nil {
		return NewDag(name)
	}
	var d *Dag
	if k := len(s.dags); k > 0 {
		d = s.dags[k-1]
		s.dags[k-1] = nil
		s.dags = s.dags[:k-1]
	} else {
		d = new(Dag)
	}
	d.Name, d.pooled, d.free = name, true, false
	return d
}

// ReclaimDag takes back DAG d, when it came from a slab, and every vertex
// task of it that came from one, for reuse by later draws; heap-built
// parts are left as they are. The caller must hold the only references to
// the DAG, its vertices, accounting root and decomposition: all of them
// are invalid at once. Reclaiming a DAG twice panics. A nil slab reclaims
// nothing.
func (s *Slab) ReclaimDag(d *Dag) {
	if s == nil {
		return
	}
	if d.free {
		panic("task: DAG reclaimed twice")
	}
	for _, n := range d.nodes {
		s.Reclaim(n.Task)
	}
	if !d.pooled {
		return
	}
	d.reset()
	d.free = true
	s.dags = append(s.dags, d)
}

// CondDag returns a conditional DAG with no branch points over an empty
// DAG named name, both drawn from the slab; a reclaimed CondDag keeps its
// branch-probability storage. A nil slab allocates both
// (NewCondDag(NewDag(name))).
func (s *Slab) CondDag(name string) *CondDag {
	if s == nil || len(s.conds) == 0 {
		return NewCondDag(s.Dag(name))
	}
	k := len(s.conds) - 1
	cd := s.conds[k]
	s.conds[k] = nil
	s.conds = s.conds[:k]
	cd.dag = s.Dag(name)
	return cd
}

// ReclaimCondDag is ReclaimDag for a conditional DAG: it takes back the
// underlying DAG as ReclaimDag does and, from a non-nil slab, the
// CondDag record with its branch-probability storage. The caller must
// hold the only references to the CondDag and to every branch slice
// Branch returned. Reclaiming a CondDag twice panics. A nil slab
// reclaims nothing.
func (s *Slab) ReclaimCondDag(cd *CondDag) {
	if s == nil {
		return
	}
	if cd.dag == nil {
		panic("task: conditional DAG reclaimed twice")
	}
	s.ReclaimDag(cd.dag)
	clear(cd.probs)
	*cd = CondDag{probs: cd.probs[:0], arena: cd.arena[:0]}
	s.conds = append(s.conds, cd)
}
