package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/node"
	"repro/internal/par"
	"repro/internal/sda"
	"repro/internal/workload"
)

// sweepConfigs is a small strategy sweep exercising the parallel paths
// the experiment drivers use.
func sweepConfigs() []Config {
	base := Config{
		Spec: workload.Spec{
			K:               4,
			Load:            0.6,
			FracLocal:       0.75,
			MeanLocalExec:   1,
			MeanSubtaskExec: 1,
			SlackMin:        1.25,
			SlackMax:        5,
			Factory:         workload.FixedParallel{N: 3},
		},
		Duration:     300,
		Warmup:       50,
		Replications: 2,
		Seed:         99,
	}
	var out []Config
	for _, psp := range []sda.PSP{sda.UD{}, sda.MustDiv(1), sda.GF{}} {
		c := base
		c.PSP = psp
		out = append(out, c)
	}
	c := base
	c.Abort = AbortProcessManager
	c.Spec.Load = 1.2
	out = append(out, c)
	// Probabilistic conditional DAG workload: branch realization draws come
	// from the workload stream, so they must not perturb determinism either.
	cd := base
	cd.Spec.Factory = nil
	cd.Spec.DagFactory = workload.ConditionalDag{
		Stages: 3, Branches: 2, Width: 2, Probs: []float64{0.4, 0.6},
	}
	out = append(out, cd)
	return out
}

// runSweep executes the sweep through par.Map with the given worker
// count, exactly like the experiment drivers do.
func runSweep(t *testing.T, workers int) []Result {
	t.Helper()
	cfgs := sweepConfigs()
	results := make([]Result, len(cfgs))
	err := par.Map(workers, len(cfgs), func(i int) error {
		r, err := Run(cfgs[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		t.Fatalf("sweep with %d workers: %v", workers, err)
	}
	return results
}

// TestSweepDeterministicAcrossWorkers: a fixed-seed sweep must produce
// identical Results no matter how many par.Map workers execute it or what
// GOMAXPROCS is — every simulation cell is single-threaded and seeded.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	serial := runSweep(t, 1)
	wide := runSweep(t, 8)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("results differ between 1 and 8 workers:\n%+v\n%+v", serial, wide)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	narrow := runSweep(t, 0) // 0 = GOMAXPROCS, now pinned to 1
	if !reflect.DeepEqual(serial, narrow) {
		t.Fatalf("results differ under GOMAXPROCS=1:\n%+v\n%+v", serial, narrow)
	}
}

// TestReplicationsDeterministicAcrossWorkers: Run's aggregates must be
// bit-identical whether replications execute sequentially or on every
// available core — the seeds are derived before any replication starts and
// results are folded in replication order.
func TestReplicationsDeterministicAcrossWorkers(t *testing.T) {
	for _, cfg := range sweepConfigs() {
		cfg.Replications = 5
		seq := cfg
		seq.Workers = 1
		wide := cfg
		wide.Workers = runtime.GOMAXPROCS(0)

		a, err := Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(wide)
		if err != nil {
			t.Fatal(err)
		}
		// The configs differ only in the Workers knob, which must not
		// influence any result.
		a.Config.Workers = 0
		b.Config.Workers = 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("results differ between Workers=1 and Workers=%d:\n%+v\n%+v",
				runtime.GOMAXPROCS(0), a, b)
		}
	}
}

// traceHashFor runs one full system with a node-event log attached and
// returns the canonical trace hash.
func traceHashFor(t *testing.T, cfg Config, seed uint64) string {
	t.Helper()
	var events node.Log
	cfg.Observer = &events
	sys, err := NewSystem(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	return events.Hash()
}

// TestTraceHashStableAcrossGOMAXPROCS: the full event trace — not just
// the aggregate statistics — must be byte-identical for a fixed seed
// regardless of the scheduler parallelism of the host process.
func TestTraceHashStableAcrossGOMAXPROCS(t *testing.T) {
	cfg := sweepConfigs()[1]
	// The pinned digest covers the t<n> labels of unnamed, recycled
	// items over one sweep-cell replication (DIV-1, load 0.6).
	const want = "2f3a9ed3971659e783ce8d02ec872fee"
	if got := traceHashFor(t, cfg, 7); got != want {
		t.Fatalf("trace hash %s, want pinned %s", got, want)
	}
	if again := traceHashFor(t, cfg, 7); again != want {
		t.Fatalf("hash differs between identical runs: %s vs %s", want, again)
	}
	prev := runtime.GOMAXPROCS(1)
	got := traceHashFor(t, cfg, 7)
	runtime.GOMAXPROCS(prev)
	if got != want {
		t.Fatalf("hash differs under GOMAXPROCS=1: %s vs %s", got, want)
	}
	if other := traceHashFor(t, cfg, 8); other == want {
		t.Fatal("different seed produced the same trace hash")
	}
}
