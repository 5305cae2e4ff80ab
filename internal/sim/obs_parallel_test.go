package sim_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// obsRun executes an observed multi-replication run at the given worker
// count and renders every merged artifact.
func obsRun(t *testing.T, workers int, maxSpans int) (sim.Result, string, string, string, []obs.Record) {
	t.Helper()
	cfg := sim.Default()
	cfg.Duration = 2000
	cfg.Warmup = 100
	cfg.Replications = 8
	cfg.Workers = workers
	cfg.Obs = obs.Options{Enabled: true, SampleEvery: 25, MaxSpans: maxSpans}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatalf("observed run returned no merged telemetry")
	}
	if res.Obs.Shards() != cfg.Replications || res.Obs.Pending() != 0 {
		t.Fatalf("merge incomplete: %d shards folded, %d pending", res.Obs.Shards(), res.Obs.Pending())
	}
	var prom, spans strings.Builder
	if err := res.Obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.WriteSpans(&spans); err != nil {
		t.Fatal(err)
	}
	snap := res.Obs.Snapshot()
	return res, prom.String(), spans.String(), snap.Summary(), snap.SpansForAnalysis()
}

// TestObservedRunBitIdenticalAcrossWorkers is the tentpole guarantee:
// obs-enabled multi-replication runs execute on all workers, and every
// merged artifact — RepResults, Prometheus exposition, span log, summary,
// blame input — is bit-identical at any worker count.
func TestObservedRunBitIdenticalAcrossWorkers(t *testing.T) {
	type artifacts struct {
		res      sim.Result
		prom     string
		spans    string
		summary  string
		analysis []obs.Record
	}
	base := artifacts{}
	base.res, base.prom, base.spans, base.summary, base.analysis = obsRun(t, 1, 1<<16)
	for _, workers := range []int{2, 4, 8} {
		got := artifacts{}
		got.res, got.prom, got.spans, got.summary, got.analysis = obsRun(t, workers, 1<<16)
		if !reflect.DeepEqual(base.res.Reps, got.res.Reps) {
			t.Fatalf("workers=%d: RepResults differ from sequential", workers)
		}
		if base.prom != got.prom {
			t.Fatalf("workers=%d: merged Prometheus exposition differs", workers)
		}
		if base.spans != got.spans {
			t.Fatalf("workers=%d: merged span log differs", workers)
		}
		if base.summary != got.summary {
			t.Fatalf("workers=%d: merged summary differs", workers)
		}
		if !reflect.DeepEqual(base.analysis, got.analysis) {
			t.Fatalf("workers=%d: merged blame input differs", workers)
		}
	}
}

// TestObservedRunBitIdenticalUnderTightBudget repeats the worker sweep
// with a span budget far below the span count, so eviction, exemplar
// selection, and the merged global trim are all exercised.
func TestObservedRunBitIdenticalUnderTightBudget(t *testing.T) {
	_, prom1, spans1, sum1, an1 := obsRun(t, 1, 64)
	_, prom4, spans4, sum4, an4 := obsRun(t, 4, 64)
	if prom1 != prom4 || spans1 != spans4 || sum1 != sum4 {
		t.Fatalf("tight-budget merged artifacts differ across worker counts")
	}
	if !reflect.DeepEqual(an1, an4) {
		t.Fatalf("tight-budget blame input differs across worker counts")
	}
}

// TestObservedRunMatchesUnobserved pins the non-perturbation invariant in
// the parallel path: RepResults identical with telemetry on and off, at
// any worker count.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := sim.Default()
	cfg.Duration = 2000
	cfg.Warmup = 100
	cfg.Replications = 4
	cfg.Workers = 4
	off, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Obs != nil {
		t.Fatalf("unobserved run carries merged telemetry")
	}
	cfg.Obs = obs.Options{Enabled: true}
	on, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Reps, on.Reps) {
		t.Fatalf("telemetry perturbed parallel RepResults")
	}
}

// TestOnReplicationHookRunsPerShard checks the hook contract: invoked
// once per replication with the index set, without forcing sequential.
func TestOnReplicationHookRunsPerShard(t *testing.T) {
	cfg := sim.Default()
	cfg.Duration = 500
	cfg.Warmup = 50
	cfg.Replications = 4
	cfg.Workers = 2
	cfg.Obs = obs.Options{Enabled: true}
	var mu sync.Mutex
	seen := map[int]int{}
	cfg.OnReplication = func(sys *sim.System) {
		mu.Lock()
		defer mu.Unlock()
		seen[sys.Replication]++
		if sys.Replications != 4 {
			t.Errorf("Replications = %d, want 4", sys.Replications)
		}
		if sys.Telemetry() == nil {
			t.Errorf("hook ran before telemetry wiring")
		}
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if seen[r] != 1 {
			t.Fatalf("replication %d saw %d hook calls, want 1", r, seen[r])
		}
	}
}

// TestRepSeedMatchesRunDerivation pins RepSeed and RepSeeds to the
// sequence Run uses.
func TestRepSeedMatchesRunDerivation(t *testing.T) {
	cfg := sim.Default()
	cfg.Duration = 500
	cfg.Warmup = 50
	cfg.Replications = 3
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := sim.RepSeeds(cfg.Seed, 3)
	for r := 0; r < 3; r++ {
		if seeds[r] != sim.RepSeed(cfg.Seed, r) {
			t.Fatalf("RepSeeds[%d] = %d, RepSeed = %d", r, seeds[r], sim.RepSeed(cfg.Seed, r))
		}
		rep, err := sim.RunOne(cfg, sim.RepSeed(cfg.Seed, r))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Reps[r], rep) {
			t.Fatalf("RepSeed(%d) does not reproduce replication %d", r, r)
		}
	}
}
