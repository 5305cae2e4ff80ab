package obs_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// shardTelemetry runs n observed replications sequentially and returns
// each shard's finished telemetry.
func shardTelemetry(t *testing.T, n int, maxSpans int) []*obs.Telemetry {
	t.Helper()
	shards := make([]*obs.Telemetry, n)
	for rep := 0; rep < n; rep++ {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: maxSpans}
		sys, err := sim.NewSystem(cfg, sim.RepSeed(cfg.Seed, rep))
		if err != nil {
			t.Fatal(err)
		}
		sys.Telemetry().SetReplication(rep)
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		sys.Finish(sys.Horizon())
		shards[rep] = sys.Telemetry()
	}
	return shards
}

func mergeOrder(t *testing.T, shards []*obs.Telemetry, order []int) *obs.Merged {
	t.Helper()
	m := obs.NewMerged()
	for _, i := range order {
		if err := shards[i].MergeInto(m); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func exposition(t *testing.T, m *obs.Merged) string {
	t.Helper()
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMergedOrderIndependent is the core determinism property: shards
// submitted in any arrival order fold to bit-identical output, because
// the fold itself always proceeds in replication-index order.
func TestMergedOrderIndependent(t *testing.T) {
	shards := shardTelemetry(t, 4, 1<<16)
	a := mergeOrder(t, shards, []int{0, 1, 2, 3})
	b := mergeOrder(t, shards, []int{3, 2, 1, 0})
	ea, eb := exposition(t, a), exposition(t, b)
	if ea != eb {
		t.Fatalf("merged exposition depends on arrival order")
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Summary() != sb.Summary() {
		t.Fatalf("merged summary depends on arrival order")
	}
	if len(sa.SpansForAnalysis()) != len(sb.SpansForAnalysis()) {
		t.Fatalf("merged analysis spans depend on arrival order")
	}
	if a.Shards() != 4 || a.Pending() != 0 {
		t.Fatalf("shards %d pending %d, want 4, 0", a.Shards(), a.Pending())
	}
}

// TestMergedSingleShardMatchesShard checks the degenerate merge: folding
// one shard reproduces that shard's own exposition byte for byte.
func TestMergedSingleShardMatchesShard(t *testing.T) {
	shard := shardTelemetry(t, 1, 1<<16)[0]
	var direct strings.Builder
	if err := shard.Snapshot(0).Registry.WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	m := mergeOrder(t, []*obs.Telemetry{shard}, []int{0})
	if got := exposition(t, m); got != direct.String() {
		t.Fatalf("single-shard merge differs from the shard exposition")
	}
}

// TestMergedGlobalSpanBudget checks the global retention budget: merging
// many shards keeps O(MaxSpans) spans, not O(shards x MaxSpans), with
// trim accounting.
func TestMergedGlobalSpanBudget(t *testing.T) {
	const budget = 64
	shards := shardTelemetry(t, 4, budget)
	perShard := 0
	for _, s := range shards {
		perShard += s.SpanCount()
	}
	if perShard <= budget {
		t.Fatalf("run too small: %d spans across shards", perShard)
	}
	m := mergeOrder(t, shards, []int{0, 1, 2, 3})
	s := m.Snapshot()
	// Equal shares can leave slack when a shard has fewer spans than its
	// share; the bound is budget + (shards-1) from share rounding.
	if len(s.Spans) > budget+3 {
		t.Fatalf("merged span log exceeds global budget: %d > %d", len(s.Spans), budget)
	}
	if m.Trimmed() == 0 {
		t.Fatalf("expected trim drops when shard spans exceed the budget")
	}
	// Exact aggregate accounting survives the trim.
	resolved, _ := s.GlobalCounts()
	wantResolved := 0
	for _, sh := range shards {
		r, _ := sh.Snapshot(0).GlobalCounts()
		wantResolved += r
	}
	if resolved != wantResolved {
		t.Fatalf("merged resolved globals %d, want %d", resolved, wantResolved)
	}
}

// TestMergedDuplicateShardRejected guards the accounting invariant.
func TestMergedDuplicateShardRejected(t *testing.T) {
	shards := shardTelemetry(t, 2, 1<<16)
	m := mergeOrder(t, shards, []int{0})
	shards[1].SetReplication(0)
	if err := shards[1].MergeInto(m); err == nil {
		t.Fatalf("duplicate replication index must be rejected")
	}
}

// TestMergedSnapshotIsolatedFromLaterFolds holds the aggregate after
// shard 0 and reads it while another goroutine folds shards 1-3: the
// snapshot must share nothing the fold writes (run under -race), and
// its rendering must not change.
func TestMergedSnapshotIsolatedFromLaterFolds(t *testing.T) {
	shards := shardTelemetry(t, 4, 1<<16)
	m := mergeOrder(t, shards, []int{0})
	held := m.Snapshot()
	render := func() string {
		var b strings.Builder
		if err := held.Registry.WritePrometheus(&b); err != nil {
			t.Error(err)
		}
		for _, rec := range held.Exemplars.Records() {
			if err := obs.WriteRecord(&b, rec); err != nil {
				t.Error(err)
			}
		}
		return b.String() + held.Summary()
	}
	want := render()
	done := make(chan error, 1)
	go func() {
		for _, s := range shards[1:] {
			if err := s.MergeInto(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 20; i++ {
		if got := render(); got != want {
			t.Fatalf("held snapshot changed while shards folded")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := render(); got != want {
		t.Fatalf("held snapshot changed after shards folded")
	}
	if m.Shards() != 4 {
		t.Fatalf("folded %d shards, want 4", m.Shards())
	}
}
