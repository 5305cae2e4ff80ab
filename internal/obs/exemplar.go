package obs

import "sort"

// spanKinds is the kind vocabulary of closed spans, in the order
// exemplar exports use.
var spanKinds = spanKindNames[:kindInject]

// exemplarStore keeps a bounded, deterministic selection of closed spans
// that survives span-ring eviction: for each span kind, the K spans with
// the latest release instants ("latest") and the K finished spans with
// the largest lateness ("worst"). Selection is a pure function of the
// observed span set, the budget K and the tie-break seed — feeding the
// same spans in any order yields the same exemplars, which is what makes
// the cross-replication merge order-independent.
//
// Ties (equal start instant, equal lateness) are broken by a seeded hash
// of (rep, id) so the choice is arbitrary but reproducible, then by
// (rep, id) as the total-order fallback.
// The candidates are kept as raw spans in lists indexed by kind code
// and preallocated at the budget, and converted to Records only at
// snapshot time: observeClose sits on the per-task-resolution hot path
// and must neither hash nor allocate.
type exemplarStore struct {
	k    int
	seed uint64
	rep  int // replication index of every span fed in

	latest [numSpanKinds]exemplarList // per kind, in latestLess order
	worst  [numSpanKinds]exemplarList // per kind, in worstLess order
}

// exemplarList is one bounded selection: K fixed span slots, the class
// key of each (the release instant for "latest", the lateness for
// "worst"), and the indexes of the occupied slots, best first. An
// admitted span is written once, into a free slot or the slot of the
// span it evicts, and ranking it shifts only indexes, never spans.
type exemplarList struct {
	slots []span    // len K
	keys  []float64 // keys[s] is the class key of slots[s]
	order []int32   // slot indexes, best first; len <= K
}

func newExemplarStore(k int, seed uint64) *exemplarStore {
	e := &exemplarStore{k: k, seed: seed}
	n := 2 * int(numSpanKinds) * k
	slots, keys, order := make([]span, n), make([]float64, n), make([]int32, n)
	i := 0
	for _, class := range []*[numSpanKinds]exemplarList{&e.latest, &e.worst} {
		for kind := range class {
			class[kind] = exemplarList{slots: slots[i : i+k : i+k], keys: keys[i : i+k : i+k], order: order[i : i : i+k]}
			i += k
		}
	}
	return e
}

// exemplarRank is the seeded tie-break: splitmix64 over (seed, rep, id).
func exemplarRank(seed uint64, rep int, id uint64) uint64 {
	x := seed ^ (uint64(rep)+1)*0x9e3779b97f4a7c15 ^ id*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deref reads an optional Record field, defaulting to 0.
func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}

// tieLess is the shared tail of both orders: seeded hash, then the
// (rep, id) identity as the total-order fallback.
func tieLess(seed uint64, a, b *Record) bool {
	ra, rb := exemplarRank(seed, a.Rep, a.ID), exemplarRank(seed, b.Rep, b.ID)
	if ra != rb {
		return ra < rb
	}
	if a.Rep != b.Rep {
		return a.Rep < b.Rep
	}
	return a.ID < b.ID
}

// latestLess orders the "latest" class: release instant descending, then
// the seeded tie-break.
func latestLess(seed uint64, a, b *Record) bool {
	if sa, sb := deref(a.Start), deref(b.Start); sa != sb {
		return sa > sb
	}
	return tieLess(seed, a, b)
}

// worstLess orders the "worst" class: lateness descending, then the
// seeded tie-break. Only records with a defined lateness enter it.
func worstLess(seed uint64, a, b *Record) bool {
	if la, lb := deref(a.Lateness), deref(b.Lateness); la != lb {
		return la > lb
	}
	return tieLess(seed, a, b)
}

// insertBounded places rec into the sorted bounded list, keeping the
// best k under less.
func insertBounded(list []Record, rec Record, k int, less func(a, b *Record) bool) []Record {
	i := sort.Search(len(list), func(i int) bool { return less(&rec, &list[i]) })
	if i >= k {
		return list // worse than everything retained at budget
	}
	list = append(list, Record{})
	copy(list[i+1:], list[i:])
	list[i] = rec
	if len(list) > k {
		list = list[:k]
	}
	return list
}

// tieSpanLess is tieLess on the in-memory form of two spans of
// replication rep, so the live selection and the merge-time
// re-selection break ties alike.
func tieSpanLess(seed uint64, rep int, a, b *span) bool {
	ra, rb := exemplarRank(seed, rep, a.id), exemplarRank(seed, rep, b.id)
	if ra != rb {
		return ra < rb
	}
	return a.id < b.id
}

// beats reports whether *sp, whose class key is key, ranks before the
// span in slot s: the class order of latestLess and worstLess, a larger
// key first and then the seeded tie-break, read off the stored key.
func (l *exemplarList) beats(sp *span, key float64, s int32, seed uint64, rep int) bool {
	if k := l.keys[s]; key != k {
		return key > k
	}
	return tieSpanLess(seed, rep, sp, &l.slots[s])
}

// insert places *sp, whose class key is key, into the list, keeping the
// best K. A span that does not beat the K-th is rejected with one
// comparison; otherwise the indexes below its rank shift down one, the
// K-th drops out, and sp is copied into the freed slot. The call never
// allocates.
func (l *exemplarList) insert(sp *span, key float64, seed uint64, rep int) {
	n, k := len(l.order), len(l.slots)
	if n == k && !l.beats(sp, key, l.order[k-1], seed, rep) {
		return // worse than everything retained at budget
	}
	i := 0
	for i < n && !l.beats(sp, key, l.order[i], seed, rep) {
		i++
	}
	slot := int32(n)
	if n == k {
		slot = l.order[k-1]
	} else {
		l.order = l.order[:n+1]
	}
	copy(l.order[i+1:], l.order[i:])
	l.order[i] = slot
	l.slots[slot], l.keys[slot] = *sp, key
}

// records converts the list of spans of replication rep, whose names
// index list, to Records, best first.
func (l *exemplarList) records(rep int, list []string) []Record {
	recs := make([]Record, len(l.order))
	for i, slot := range l.order {
		recs[i] = l.slots[slot].record(rep, list)
	}
	return recs
}

// observeClose feeds one just-closed span into both exemplar classes.
// The span is copied by value, so later ring eviction cannot disturb it.
func (e *exemplarStore) observeClose(sp *span) {
	e.latest[sp.kind].insert(sp, sp.start, e.seed, e.rep)
	if late, ok := sp.lateness(); ok {
		e.worst[sp.kind].insert(sp, late, e.seed, e.rep)
	}
}

// snapshot converts the store, whose span names index list, into its
// serializable, mergeable form; kinds with no candidates are omitted.
func (e *exemplarStore) snapshot(list []string) ExemplarSet {
	s := ExemplarSet{
		K:      e.k,
		Seed:   e.seed,
		Latest: make(map[string][]Record, len(e.latest)),
		Worst:  make(map[string][]Record, len(e.worst)),
	}
	for kind := range e.latest {
		if l := &e.latest[kind]; len(l.order) > 0 {
			s.Latest[spanKindNames[kind]] = l.records(e.rep, list)
		}
		if l := &e.worst[kind]; len(l.order) > 0 {
			s.Worst[spanKindNames[kind]] = l.records(e.rep, list)
		}
	}
	return s
}

// ExemplarSet is a shard's exemplar selection in mergeable form: per
// span kind, the K latest-released and K worst-lateness closed spans in
// their class sort order. Merging re-selects the top K over the union
// with the same comparators, so the merged set equals what one store fed
// every shard's spans would have kept — independent of merge order.
type ExemplarSet struct {
	K      int
	Seed   uint64
	Latest map[string][]Record
	Worst  map[string][]Record
}

// clone deep-copies the set so merging into the copy cannot mutate the
// original's maps or lists.
func (s ExemplarSet) clone() ExemplarSet {
	cp := ExemplarSet{
		K:      s.K,
		Seed:   s.Seed,
		Latest: make(map[string][]Record, len(s.Latest)),
		Worst:  make(map[string][]Record, len(s.Worst)),
	}
	for kind, list := range s.Latest {
		cp.Latest[kind] = append([]Record(nil), list...)
	}
	for kind, list := range s.Worst {
		cp.Worst[kind] = append([]Record(nil), list...)
	}
	return cp
}

// Merge folds other's exemplars into s.
func (s *ExemplarSet) Merge(other ExemplarSet) {
	mergeClass := func(dst map[string][]Record, src map[string][]Record, less func(seed uint64, a, b *Record) bool) {
		for kind, list := range src {
			for _, rec := range list {
				dst[kind] = insertBounded(dst[kind], rec, s.K,
					func(a, b *Record) bool { return less(s.Seed, a, b) })
			}
		}
	}
	mergeClass(s.Latest, other.Latest, latestLess)
	mergeClass(s.Worst, other.Worst, worstLess)
}

// Records serializes the set in deterministic order: kinds in spanKinds
// order, the latest class then the worst class, each in its sort order.
// Spans retained in both classes appear twice; consumers that need
// uniqueness dedup on (rep, id).
func (s ExemplarSet) Records() []Record {
	var out []Record
	for _, kind := range spanKinds {
		out = append(out, s.Latest[kind]...)
	}
	for _, kind := range spanKinds {
		out = append(out, s.Worst[kind]...)
	}
	return out
}
