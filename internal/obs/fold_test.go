package obs

import (
	"runtime"
	"testing"
	"unsafe"
)

// fullShard returns replication rep's telemetry with its span and edge
// rings full at a budget of max.
func fullShard(rep, max int) *Telemetry {
	tel := New(Options{Enabled: true, MaxSpans: max})
	tel.SetReplication(rep)
	name := tel.names.id("L")
	for i := 0; i < max; i++ {
		at := float64(i)
		sp := tel.pushSpan(nil, false)
		sp.kind, sp.task, sp.start, sp.end, sp.vdl = kindLocal, name, at, at+1, at+2
		tel.addEdge(edgePred, uint64(i), uint64(i+1), 0, at, name)
	}
	return tel
}

// TestMergedRetentionBounded folds 2000 shards with full span and edge
// rings under a budget that drops each shard's share to one span and one
// edge: the merge must then hold O(budget) memory — within twice one
// shard's rings — not every shard's ring. A fold that kept the rings it
// was handed and only resliced them would hold all 2000. The shard
// count is large so that the runtime's own page-granular noise stays
// small against the bound.
func TestMergedRetentionBounded(t *testing.T) {
	const shards, budget = 2000, 2000
	ring := uint64(budget) * uint64(unsafe.Sizeof(span{})+unsafe.Sizeof(edge{}))
	fold := func(n int) *Merged {
		m := NewMerged()
		for rep := 0; rep < n; rep++ {
			if err := fullShard(rep, budget).MergeInto(m); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	// A throwaway fold first, so the baseline already holds what the
	// runtime allocates once (size-class spans, the test's own state).
	runtime.KeepAlive(fold(20))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := fold(shards)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if m.spans.n != shards || m.edges.n != shards {
		t.Fatalf("merge keeps %d spans and %d edges, want one of each per shard", m.spans.n, m.edges.n)
	}
	growth := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("HeapInuse grew %d B (HeapAlloc %d B) folding %d shards; one shard's rings are %d B",
		growth, int64(after.HeapAlloc)-int64(before.HeapAlloc), shards, ring)
	if growth > int64(2*ring) {
		t.Fatalf("HeapInuse grew %d B folding %d shards, more than twice one shard's rings (%d B)", growth, shards, ring)
	}
	runtime.KeepAlive(m)
}

// TestFoldTrimBoundary pins when the budget trim starts: a merged log
// of exactly budget values is kept whole, one more value trims every
// shard to its share.
func TestFoldTrimBoundary(t *testing.T) {
	fold := func(lens ...int) *foldLog[edge] {
		f := &foldLog[edge]{}
		for _, n := range lens {
			f.add(shardLog[edge]{flat: make([]edge, n)})
		}
		return f
	}
	if cut := fold(3, 3).trim(6, 3, nil); cut != 0 {
		t.Fatalf("trimmed %d values of a log at its budget", cut)
	}
	f := fold(4, 3)
	if cut := f.trim(6, 3, nil); cut != 1 || f.n != 6 || f.logs[0].len() != 3 {
		t.Fatalf("over budget by one: cut %d, kept %d, first shard keeps %d; want 1, 6, 3", cut, f.n, f.logs[0].len())
	}
}
