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
