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
