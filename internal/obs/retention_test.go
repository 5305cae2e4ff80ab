package obs_test

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRingKeepsLatestSpans pins the retention policy: under a budget far
// below the span count, the ring keeps the *latest* spans (ids form the
// top of the id space), eviction is counted, and total accounting stays
// exact.
func TestRingKeepsLatestSpans(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.Options{Enabled: true, MaxSpans: 16}
	_, tel := runObserved(t, cfg, 3)

	spans := obs.Spans(tel)
	if len(spans) > 16 {
		t.Fatalf("retained %d spans, budget 16", len(spans))
	}
	total := obs.TotalSpans(tel)
	if total <= 16 {
		t.Fatalf("run too small to exercise eviction: %d spans", total)
	}
	if got := obs.DroppedSpans(tel); got != total-uint64(len(spans)) {
		t.Fatalf("dropped %d, want total-retained = %d", got, total-uint64(len(spans)))
	}
	// Keep-latest: retained ids are exactly the top of the id space, in
	// release order.
	for i, rec := range spans {
		want := total - uint64(len(spans)) + uint64(i) + 1
		if rec.ID != want {
			t.Fatalf("span %d: id %d, want %d (latest-span retention)", i, rec.ID, want)
		}
	}
}

// TestGlobalCountsSurviveEviction checks that outcome accounting reads
// counters, not the span ring, so it is identical under any retention
// budget.
func TestGlobalCountsSurviveEviction(t *testing.T) {
	run := func(maxSpans int) (resolved, missed int) {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: maxSpans}
		_, tel := runObserved(t, cfg, 9)
		return obs.GlobalCounts(tel)
	}
	rBig, mBig := run(1 << 16)
	rTiny, mTiny := run(8)
	if rBig != rTiny || mBig != mTiny {
		t.Fatalf("global counts changed with retention budget: (%d,%d) vs (%d,%d)",
			rBig, mBig, rTiny, mTiny)
	}
	if rBig == 0 {
		t.Fatalf("no globals resolved")
	}
}

// TestExemplarsSurviveEviction checks the exemplar invariants: bounded
// size, deterministic selection independent of the ring budget, and
// worst-lateness members really are the maxima of the retained class.
func TestExemplarsSurviveEviction(t *testing.T) {
	run := func(maxSpans int) (*obs.Telemetry, []obs.Record) {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: maxSpans, ExemplarK: 4}
		_, tel := runObserved(t, cfg, 3)
		return tel, obs.Exemplars(tel)
	}
	_, tight := run(8)
	_, loose := run(1 << 16)
	if len(tight) == 0 {
		t.Fatalf("no exemplars retained")
	}
	// Exemplar selection sees every closed span regardless of ring
	// eviction, so the sets must be identical.
	if !reflect.DeepEqual(tight, loose) {
		t.Fatalf("exemplar selection depends on the ring budget:\ntight: %v\nloose: %v", tight, loose)
	}
	// Bounded: at most 4 kinds x 2 classes x K.
	if len(tight) > 4*2*4 {
		t.Fatalf("exemplar set exceeds budget: %d records", len(tight))
	}
	// Exemplars must be closed spans and duplicate-free within a class
	// (dedup key rep+id appears at most twice: once per class).
	seen := map[uint64]int{}
	for _, rec := range tight {
		if rec.End == nil {
			t.Fatalf("open span %d retained as exemplar", rec.ID)
		}
		seen[rec.ID]++
		if seen[rec.ID] > 2 {
			t.Fatalf("span %d appears %d times across 2 classes", rec.ID, seen[rec.ID])
		}
	}
}

// TestExemplarSeedChangesOnlyTies checks that the seed is a tie-break:
// with distinct latenesses the selection is seed-independent, and any
// seed yields a deterministic set.
func TestExemplarSeedChangesOnlyTies(t *testing.T) {
	run := func(seed uint64) []obs.Record {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, ExemplarSeed: seed, ExemplarK: 4}
		_, tel := runObserved(t, cfg, 3)
		return obs.Exemplars(tel)
	}
	a1, a2 := run(1), run(1)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("exemplar selection not deterministic at fixed seed")
	}
}

func runObservedSys(t *testing.T, cfg sim.Config, seed uint64) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	return sys
}
