package obs

import "testing"

// TestRing checks the chunked ring against a plain slice model: values
// come back oldest first, eviction starts exactly at max, and a budget
// that is not a whole number of chunks allocates only what it needs.
func TestRing(t *testing.T) {
	for _, max := range []int{1, 7, ringChunk, ringChunk + 476, 3 * ringChunk} {
		r := newRing[int](max)
		var model []int
		for v := 0; v < 3*max+5; v++ {
			slot, evicted := r.push()
			if want := len(model) == max; evicted != want {
				t.Fatalf("max %d push %d: evicted %v, want %v", max, v, evicted, want)
			}
			if evicted {
				if *slot != model[0] {
					t.Fatalf("max %d push %d: evicted slot holds %d, want oldest %d", max, v, *slot, model[0])
				}
				model = model[1:]
			}
			*slot = v
			model = append(model, v)
		}
		if r.n != len(model) {
			t.Fatalf("max %d: n = %d, want %d", max, r.n, len(model))
		}
		for i, want := range model {
			if got := *r.get(i); got != want {
				t.Fatalf("max %d: get(%d) = %d, want %d", max, i, got, want)
			}
		}
		held := 0
		for _, c := range r.chunks {
			held += len(c)
		}
		if held != max {
			t.Errorf("max %d: chunks hold %d slots", max, held)
		}
	}
}

// TestRingRelease checks release against a brute-force model on a
// wrapped ring: the kept values read back unchanged, exactly the chunks
// that hold a kept position stay, and only full-size chunks reach a
// keeping free list.
func TestRingRelease(t *testing.T) {
	const max = 3*ringChunk + 476
	src := newRing[int](max)
	for v := 0; v < 2*max+300; v++ {
		slot, _ := src.push()
		*slot = v
	}
	for _, lo := range []int{0, 1, 700, ringChunk, 2*ringChunk + 5, max - 1, max} {
		r := src.clone()
		free := &freeChunks[int]{keep: true}
		r.release(lo, free)
		kept := map[int]bool{} // chunks holding a kept position
		for i := lo; i < r.n; i++ {
			kept[r.pos(i)>>ringChunkBits] = true
			if got, want := *r.get(i), *src.get(i); got != want {
				t.Fatalf("lo %d: value %d reads %d, want %d", lo, i, got, want)
			}
		}
		for c, chunk := range r.chunks {
			if (chunk != nil) != kept[c] {
				t.Errorf("lo %d: chunk %d held %v, holds a kept value %v", lo, c, chunk != nil, kept[c])
			}
		}
		want := 0 // released full-size chunks; the short last one is dropped
		for c, chunk := range src.chunks {
			if !kept[c] && len(chunk) == ringChunk {
				want++
			}
		}
		if len(free.chunks) != want {
			t.Errorf("lo %d: %d chunks on the free list, want %d", lo, len(free.chunks), want)
		}
		for _, c := range free.chunks {
			if len(c) != ringChunk {
				t.Errorf("lo %d: a %d-value chunk reached the free list", lo, len(c))
			}
		}
	}
}
