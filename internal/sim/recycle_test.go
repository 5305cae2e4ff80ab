package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// recycleFactories are the four tree factories a recycled run can draw
// from; every one builds its composites through the manager's slab.
var recycleFactories = []workload.Factory{
	workload.FixedParallel{N: 4},
	workload.UniformParallel{Min: 2, Max: 6},
	workload.SerialParallel{Stages: 5, Fanout: 4},
	workload.NetworkPipeline{Stages: 3, Fanout: 2, NetNodes: 1, HopMean: 0.2},
}

// recycleDagFactories are the DAG factories a recycled run can draw
// from, both conditional shapes included; every one draws its DAG and
// vertex tasks from the manager's slab.
var recycleDagFactories = []workload.DagFactory{
	workload.LayeredDag{Layers: 3, MinWidth: 1, MaxWidth: 4, EdgeProb: 0.3},
	workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3},
	workload.ConditionalDag{Stages: 5, Branches: 3, Width: 2},
	workload.ConditionalDag{Stages: 3, Branches: 2, Width: 4, Probs: []float64{0.7, 0.3},
		RelayDist: workload.Deterministic{}, BranchDist: workload.ErlangK{K: 2}},
}

// recycleConfig decodes one fuzzed configuration: a tree or DAG factory,
// an SSP and a PSP, no, process-manager or local-scheduler abort,
// preemption or a multi-server node, the load, and telemetry on.
func recycleConfig(fac, ssp, psp, abort, servers, load uint8, preempt bool) (Config, error) {
	cfg := Default()
	if i := int(fac) % (len(recycleFactories) + len(recycleDagFactories)); i < len(recycleFactories) {
		cfg.Spec.Factory = recycleFactories[i]
	} else {
		cfg.Spec.Factory = nil
		cfg.Spec.DagFactory = recycleDagFactories[i-len(recycleFactories)]
	}
	cfg.Spec.Load = 0.3 + float64(load%7)/10
	var err error
	if cfg.SSP, err = sda.ParseSSP(sda.SSPNames()[int(ssp)%len(sda.SSPNames())]); err != nil {
		return cfg, err
	}
	if cfg.PSP, err = sda.ParsePSP(sda.PSPNames()[int(psp)%len(sda.PSPNames())]); err != nil {
		return cfg, err
	}
	cfg.Abort = []AbortMode{AbortNone, AbortProcessManager, AbortLocalScheduler}[abort%3]
	// Preemption implies one server per node.
	if cfg.Preemptive = preempt; !preempt {
		cfg.Servers = 1 + int(servers%3)
	}
	cfg.Duration = 400
	cfg.Warmup = 50
	cfg.Replications = 1
	cfg.Obs.Enabled = true
	return cfg, nil
}

// recycleRun is everything a run shows outside: the replication result,
// the process-manager callback digest and the telemetry export files.
type recycleRun struct {
	rep     string
	digest  string
	exports map[string][]byte
}

// outcomeLog is a callbackLog that also logs, at a DAG run's
// RecordGlobal, every vertex's task: RecordGlobal is the run's final
// callback, so a DAG handed back before it shows in the digest.
type outcomeLog struct{ *callbackLog }

func (l outcomeLog) RecordGlobal(root *task.Task, d *task.Dag, missed bool) {
	l.callbackLog.RecordGlobal(root, d, missed)
	if d == nil {
		return
	}
	for _, n := range d.Nodes() {
		l.line("vertex", "%s %d %v %v %t", n.Task.Name, n.Task.Node, float64(n.Task.Arrival), float64(n.Task.Finish), n.Task.Aborted)
	}
}

// runRecycling runs one replication of cfg with task recycling on or off.
func runRecycling(t *testing.T, cfg Config, seed uint64, recycle bool) recycleRun {
	t.Helper()
	log := outcomeLog{newCallbackLog()}
	cfg.Recorder = log
	sys, err := NewSystem(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !recycle {
		sys.Mgr.KeepTasks()
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	rep := sys.Finish(sys.Horizon())
	fold := obs.NewMerged()
	if err := sys.Telemetry().MergeInto(fold); err != nil {
		t.Fatal(err)
	}
	paths, err := obs.ExportBundle(t.TempDir(), fold, sys.Telemetry().Sampler())
	if err != nil {
		t.Fatal(err)
	}
	out := recycleRun{rep: fmt.Sprintf("%+v", rep), digest: log.digest(), exports: map[string][]byte{}}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out.exports[filepath.Base(p)] = b
	}
	return out
}

// FuzzRecycleParity pins task recycling to its absence: any local, tree
// or DAG configuration, run once with the manager reclaiming tasks and
// DAGs after their final outcome and once keeping every one, must give
// the same replication result, the same callback sequence and
// byte-identical telemetry exports. A subscriber or manager path that
// read a task or DAG after handing it back would read a poisoned or
// reused one and move one of them.
func FuzzRecycleParity(f *testing.F) {
	for i := uint8(0); i < 12; i++ {
		f.Add(uint64(i+1), i, i, i, i/3, i, uint8(6-i%4), i%5 == 4)
	}
	// Every DAG factory under every abort mode, once each.
	trees := uint8(len(recycleFactories))
	for i := uint8(0); i < 12; i++ {
		f.Add(uint64(i+13), trees+i%4, i, i, i%3, i, uint8(6-i%4), i%5 == 4)
	}
	f.Fuzz(func(t *testing.T, seed uint64, fac, ssp, psp, abort, servers, load uint8, preempt bool) {
		cfg, err := recycleConfig(fac, ssp, psp, abort, servers, load, preempt)
		if err != nil {
			t.Fatal(err)
		}
		on := runRecycling(t, cfg, seed, true)
		off := runRecycling(t, cfg, seed, false)
		if on.rep != off.rep {
			t.Fatalf("%s: result differs\nrecycled: %s\nkept:     %s", cfg.Name(), on.rep, off.rep)
		}
		if on.digest != off.digest {
			t.Fatalf("%s: callback digest %s recycled, %s kept", cfg.Name(), on.digest, off.digest)
		}
		if len(on.exports) != len(off.exports) {
			t.Fatalf("%s: %d export files recycled, %d kept", cfg.Name(), len(on.exports), len(off.exports))
		}
		for name, b := range off.exports {
			if string(on.exports[name]) != string(b) {
				t.Fatalf("%s: export %s differs", cfg.Name(), name)
			}
		}
	})
}

// dagAbortConfig is the configuration of the dag-abort benchmark
// workload: three-stage fork-join DAGs with fan-out 4 and stage-skipping
// edges at probability 0.3, EQF and DIV-1 under process-manager abort at
// load 0.85.
func dagAbortConfig() Config {
	cfg := Default()
	cfg.Spec.Factory = nil
	cfg.Spec.DagFactory = workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3}
	cfg.Spec.Load = 0.85
	cfg.SSP = sda.EQF{}
	cfg.PSP = sda.MustDiv(1)
	cfg.Abort = AbortProcessManager
	return cfg
}

// TestReplicationAllocsFlat checks that a replication's allocations do not
// grow with its length: once the manager's slab and free lists reach the
// peak of tasks and DAGs in flight, every further one reuses a reclaimed
// one. A replication ten times longer may allocate at most 1.5 times as
// often; with a per-task allocation it allocated about ten times as often.
//
// The cases cover every workload family: Table 1 trees and locals, the
// fork-join DAGs of the dag-abort benchmark, three servers per node under
// local-scheduler abort, and the dag-abort DAGs with telemetry on, whose
// DAG submissions and outcomes it indexes. Telemetry keeps
// its spans and causal edges in rings that fill in chunks of 1,024 up to
// MaxSpans; the telemetry case caps MaxSpans at one chunk, so each ring
// allocates the same single chunk at both lengths and only allocations
// outside the rings can grow.
func TestReplicationAllocsFlat(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"table1", Default},
		{"dag-abort", dagAbortConfig},
		{"multi-server", func() Config {
			cfg := Default()
			cfg.Servers = 3
			cfg.Spec.Load = 0.8
			cfg.Abort = AbortLocalScheduler
			return cfg
		}},
		{"telemetry", func() Config {
			cfg := dagAbortConfig()
			cfg.Obs = obs.Options{Enabled: true, MaxSpans: 1024}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.cfg().Spec.DagFactory != nil {
				t.Skip("DAG allocation counts under the race detector include its sync.Pool drops")
			}
			mallocs := func(duration float64) float64 {
				cfg := tc.cfg()
				cfg.Duration = simtime.Duration(duration)
				cfg.Replications = 1
				return testing.AllocsPerRun(1, func() {
					if _, err := RunOne(cfg, 1); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := mallocs(5000), mallocs(50000)
			t.Logf("mallocs per replication: %.0f at duration 5,000, %.0f at 50,000", short, long)
			if long > 1.5*short {
				t.Errorf("duration 50,000 made %.0f allocations, over 1.5x the %.0f of duration 5,000", long, short)
			}
		})
	}
}
