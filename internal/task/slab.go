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

// Slab hands out leaf tasks (local tasks, tree subtasks and DAG vertices)
// from fixed-size chunks, so a stream of leaves costs one allocation per
// chunk instead of one per task. A workload driver owns one per
// replication.
//
// Only leaves go in a slab. A leaf holds no pointer to another task, so a
// chunk never keeps another chunk alive. A composite in a chunk would pin
// the chunks holding its children, which pin the composites they hold, in
// a chain that spans the whole run; composites and their Children slices
// are therefore always allocated one by one.
//
// Nothing is recycled: a chunk is freed by the garbage collector once
// none of its tasks is referenced, so one long-lived task keeps its whole
// chunk alive. A nil *Slab is valid and allocates every task on its own.
// A Slab is not safe for concurrent use.
type Slab struct {
	free []Task // unused tail of the current chunk
}

// alloc returns a zeroed task from the current chunk, starting a new chunk
// when it is used up. A nil slab allocates the task alone.
func (s *Slab) alloc() *Task {
	if s == nil {
		return new(Task)
	}
	if len(s.free) == 0 {
		s.free = make([]Task, slabChunk)
	}
	t := &s.free[0]
	s.free = s.free[1:]
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
	t := s.alloc()
	*t = pristine(name, KindSimple, node, ex, ex)
	return t, nil
}

// Clone is Task.Clone drawing the copy's leaves from the slab; composites
// and Children slices are allocated one by one.
func (s *Slab) Clone(t *Task) *Task {
	var c *Task
	if t.IsSimple() && len(t.Children) == 0 {
		c = s.alloc()
	} else {
		c = new(Task)
	}
	*c = pristine(t.Name, t.Kind, t.Node, t.Exec, t.Pex)
	if len(t.Children) > 0 {
		c.Children = make([]*Task, len(t.Children))
		for i, ch := range t.Children {
			c.Children[i] = s.Clone(ch)
		}
	}
	return c
}
