package obs

import "sync"

// ring is a bounded log of at most max values, oldest first. Values live
// in chunks of up to ringChunk values, allocated as the log fills, so
// growing it never copies or re-zeroes what it already holds and a
// short run allocates one small chunk. Once max values are held, each
// push overwrites the oldest. The span store and the causal-edge log
// are rings.
//
// A ring with a free list takes its full-size chunks from it before it
// allocates: the replications of one run share their fold's free lists,
// so a later replication fills the chunks an earlier one's trimmed log
// handed back. A taken chunk still holds stale values; every slot is
// written by push's caller before it is read.
type ring[T any] struct {
	chunks [][]T // a nil chunk was handed back and holds no kept value
	start  int   // position of the oldest value; 0 until the ring is full
	n      int   // values held
	max    int
	free   *freeChunks[T] // nil allocates every chunk
}

// ringChunkBits sizes a chunk: 1024 values, 96 KB of spans.
const (
	ringChunkBits = 10
	ringChunk     = 1 << ringChunkBits
)

func newRing[T any](max int) ring[T] { return ring[T]{max: max} }

// at returns the value at position pos.
func (r *ring[T]) at(pos int) *T {
	return &r.chunks[pos>>ringChunkBits][pos&(ringChunk-1)]
}

// pos returns the position of the i-th oldest value.
func (r *ring[T]) pos(i int) int {
	pos := r.start + i
	if pos >= r.max {
		pos -= r.max
	}
	return pos
}

// get returns the i-th oldest value, 0 <= i < n.
func (r *ring[T]) get(i int) *T { return r.at(r.pos(i)) }

// push claims the slot of a new newest value and returns it, with
// evicted true when the ring was full: the slot then still holds the
// oldest value, which the caller may read before overwriting it.
func (r *ring[T]) push() (slot *T, evicted bool) {
	if r.n == r.max {
		slot = r.at(r.start)
		if r.start++; r.start == r.max {
			r.start = 0
		}
		return slot, true
	}
	if r.n == len(r.chunks)<<ringChunkBits {
		r.chunks = append(r.chunks, r.free.get(min(ringChunk, r.max-r.n)))
	}
	r.n++
	return r.at(r.n - 1), false
}

// release hands every chunk that holds none of the values from the
// lo-th oldest on back to free (nil drops them for the collector).
func (r *ring[T]) release(lo int, free *freeChunks[T]) {
	for c, chunk := range r.chunks {
		if chunk != nil && !r.keeps(c, lo) {
			free.put(chunk)
			r.chunks[c] = nil
		}
	}
}

// keeps reports whether chunk c holds one of the values from the lo-th
// oldest on.
func (r *ring[T]) keeps(c, lo int) bool {
	k := r.n - lo // kept values, at positions first .. first+k-1 mod max
	if k <= 0 {
		return false
	}
	first := r.pos(lo)
	from, to := c<<ringChunkBits, c<<ringChunkBits+len(r.chunks[c]) // positions [from, to)
	return overlaps(from, to, first, first+k) || overlaps(from, to, first-r.max, first+k-r.max)
}

// overlaps reports whether [a, b) and [c, d) share a position.
func overlaps(a, b, c, d int) bool { return a < d && c < b }

// clone returns a copy of the ring that shares no chunk with it.
func (r *ring[T]) clone() ring[T] {
	cp := ring[T]{chunks: make([][]T, len(r.chunks)), start: r.start, n: r.n, max: r.max}
	for c, chunk := range r.chunks {
		if chunk != nil {
			cp.chunks[c] = append([]T(nil), chunk...)
		}
	}
	return cp
}

// freeChunks is a free list of full-size ring chunks, safe for
// concurrent use. It keeps what is handed back only while keep is set;
// fresh counts the values of the chunks get had to allocate.
type freeChunks[T any] struct {
	mu     sync.Mutex
	keep   bool
	chunks [][]T
	fresh  int
}

// get returns a chunk of size values, from the list when it holds one.
// A nil list allocates.
func (f *freeChunks[T]) get(size int) []T {
	if f == nil {
		return make([]T, size)
	}
	f.mu.Lock()
	if n := len(f.chunks); n > 0 {
		c := f.chunks[n-1]
		f.chunks[n-1] = nil
		f.chunks = f.chunks[:n-1]
		f.mu.Unlock()
		return c[:size]
	}
	f.fresh += size
	f.mu.Unlock()
	return make([]T, size)
}

// put hands a chunk back. Only full-size chunks are kept, and only
// while the list keeps; a nil list drops every chunk.
func (f *freeChunks[T]) put(c []T) {
	if f == nil || cap(c) != ringChunk {
		return
	}
	f.mu.Lock()
	if f.keep {
		f.chunks = append(f.chunks, c[:ringChunk])
	}
	f.mu.Unlock()
}

// setKeep starts or stops keeping handed-back chunks; stopping drops
// the chunks the list holds.
func (f *freeChunks[T]) setKeep(keep bool) {
	f.mu.Lock()
	f.keep = keep
	if !keep {
		clear(f.chunks)
		f.chunks = nil
	}
	f.mu.Unlock()
}
