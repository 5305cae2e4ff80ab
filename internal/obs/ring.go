package obs

// ring is a bounded log of at most max values, oldest first. Values live
// in chunks of up to ringChunk values, allocated as the log fills, so
// growing it never copies or re-zeroes what it already holds and a
// short run allocates one small chunk. Once max values are held, each
// push overwrites the oldest. The span store and the causal-edge log
// are rings.
type ring[T any] struct {
	chunks [][]T
	start  int // position of the oldest value; 0 until the ring is full
	n      int // values held
	max    int
}

// ringChunkBits sizes a chunk: 1024 values, 112 KB of spans.
const (
	ringChunkBits = 10
	ringChunk     = 1 << ringChunkBits
)

func newRing[T any](max int) ring[T] { return ring[T]{max: max} }

// at returns the value at position pos.
func (r *ring[T]) at(pos int) *T {
	return &r.chunks[pos>>ringChunkBits][pos&(ringChunk-1)]
}

// get returns the i-th oldest value, 0 <= i < n.
func (r *ring[T]) get(i int) *T {
	pos := r.start + i
	if pos >= r.max {
		pos -= r.max
	}
	return r.at(pos)
}

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
		r.chunks = append(r.chunks, make([]T, min(ringChunk, r.max-r.n)))
	}
	r.n++
	return r.at(r.n - 1), false
}
