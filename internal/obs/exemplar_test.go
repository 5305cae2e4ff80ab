package obs

import (
	"math/rand"
	"sort"
	"testing"
)

// TestExemplarStoreMatchesSortReference feeds random closed spans to the
// exemplar store and checks every (kind, class) list against a
// sort-all-then-take-K reference over the spans fed so far. Starts and
// latenesses are drawn from a handful of values, so most comparisons
// tie and fall through to the seeded hash and the id fallback. A store
// holds one replication's spans; each K runs as another replication.
func TestExemplarStoreMatchesSortReference(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		rnd := rand.New(rand.NewSource(int64(k)))
		e := newExemplarStore(k)
		e.rep = k
		var fed []span
		for id := uint64(1); id <= 600; id++ {
			judge := float64(rnd.Intn(3))
			sp := span{
				id:     id,
				kind:   spanKind(rnd.Intn(int(numSpanKinds))),
				start:  float64(rnd.Intn(4)),
				vdl:    judge,
				end:    judge + float64(rnd.Intn(3)-1),
				open:   rnd.Intn(8) == 0,
				abort:  rnd.Intn(8) == 0,
				hasRDL: rnd.Intn(2) == 0,
			}
			if sp.hasRDL {
				sp.vdl, sp.realDL = judge+float64(rnd.Intn(5)), judge
			}
			e.observeClose(&sp)
			fed = append(fed, sp)
			if id%50 == 0 {
				checkExemplarStore(t, e, fed)
			}
		}
	}
}

// checkExemplarStore fails unless every list of e holds, best first,
// the top K of fed under the Record comparators the merge re-selects
// with (latestLess, worstLess).
func checkExemplarStore(t *testing.T, e *exemplarStore, fed []span) {
	t.Helper()
	k := len(e.latest[0].slots)
	for kind := spanKind(0); kind < numSpanKinds; kind++ {
		for _, worst := range []bool{false, true} {
			less := latestLess
			if worst {
				less = worstLess
			}
			var want []Record
			for _, sp := range fed {
				if _, late := sp.lateness(); sp.kind == kind && (!worst || late) {
					want = append(want, sp.record(e.rep, nil))
				}
			}
			sort.Slice(want, func(i, j int) bool { return less(&want[i], &want[j]) })
			want = want[:min(len(want), k)]
			l := &e.latest[kind]
			if worst {
				l = &e.worst[kind]
			}
			if len(l.order) != len(want) {
				t.Fatalf("K=%d kind %s worst=%t: %d exemplars, reference keeps %d",
					k, spanKindNames[kind], worst, len(l.order), len(want))
			}
			for i, slot := range l.order {
				if got := l.slots[slot].record(e.rep, nil); !sameRecord(&got, &want[i]) {
					t.Fatalf("K=%d kind %s worst=%t: rank %d is span (%d,%d), reference (%d,%d)",
						k, spanKindNames[kind], worst, i, got.Rep, got.ID, want[i].Rep, want[i].ID)
				}
			}
		}
	}
}
