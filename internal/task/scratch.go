package task

import (
	"sync"

	"repro/internal/simtime"
)

// scratch is working memory indexed by vertex id for the DAG walks
// (topological sort, decomposition, cluster paths and groups). It is
// recycled through a pool, so those walks allocate only their results.
//
// Membership marks are epoch-stamped: mark[id] == e means "in the set
// stamped e", and every new set takes a fresh epoch, so marking never has
// to clear the array first.
type scratch struct {
	mark  []uint32
	seen  []uint32
	epoch uint32

	comp  []int32 // component index per vertex id
	inP   []uint32
	sinkP []bool
	srcQ  []bool

	ints  []int              // general-purpose, at least 4n long
	aux   []int              // general-purpose, at least 4n+1 long
	dur   []simtime.Duration // per vertex id
	queue []*DagNode

	bounds []int // decomposition split-point stack
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns pooled scratch sized for a DAG of n vertices.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.seen = make([]uint32, n)
		sc.inP = make([]uint32, n)
		sc.comp = make([]int32, n)
		sc.sinkP = make([]bool, n)
		sc.srcQ = make([]bool, n)
		sc.dur = make([]simtime.Duration, n)
		sc.ints = make([]int, 4*n)
		sc.aux = make([]int, 4*n+1)
		sc.queue = make([]*DagNode, 0, n)
		sc.epoch = 0
	}
	return sc
}

func putScratch(sc *scratch) {
	clear(sc.queue[:cap(sc.queue)]) // drop vertex references before pooling
	scratchPool.Put(sc)
}

// next returns a fresh epoch. On wrap-around every stamp array is cleared,
// so a stale stamp can never equal a live epoch.
func (sc *scratch) next() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		clear(sc.seen)
		clear(sc.inP)
		sc.epoch = 1
	}
	return sc.epoch
}

// markSet stamps every vertex of vs with a fresh epoch and returns it.
func (sc *scratch) markSet(vs []*DagNode) uint32 {
	e := sc.next()
	for _, v := range vs {
		sc.mark[v.id] = e
	}
	return e
}

// arena hands out capacity-capped sub-slices of one backing array, so
// that many small lists of a DAG share a few allocations and one list can
// never append into another's entries. A full arena moves to a fresh
// backing array; the lists already carved keep the old one. An arena
// lives as long as its DAG and is reset for the DAG's next use, growing
// then to hold everything carved since the last reset, so a reused DAG of
// the same shape carves from one array without allocating.
type arena[T any] struct {
	buf  []T
	used int // elements carved since the last reset, across backing arrays
}

// carve returns the next k elements. A fresh backing array, when one is
// needed, holds max(k, chunk) elements.
func (a *arena[T]) carve(k, chunk int) []T {
	a.used += k
	if cap(a.buf)-len(a.buf) < k {
		a.buf = make([]T, 0, max(k, chunk))
	}
	i := len(a.buf)
	a.buf = a.buf[:i+k]
	return a.buf[i : i+k : i+k]
}

// reserve makes room for k more elements in the current backing array.
func (a *arena[T]) reserve(k int) {
	if cap(a.buf)-len(a.buf) < k {
		a.buf = make([]T, 0, k)
	}
}

// reset empties the arena for reuse, zeroing what it handed out so no
// stale pointer survives. Every list carved from it becomes invalid.
func (a *arena[T]) reset() {
	if cap(a.buf) < a.used {
		a.buf = make([]T, 0, a.used)
	} else {
		clear(a.buf)
		a.buf = a.buf[:0]
	}
	a.used = 0
}
