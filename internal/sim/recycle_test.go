package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sda"
	"repro/internal/simtime"
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

// recycleConfig decodes one fuzzed local/tree configuration: a tree
// factory, an SSP and a PSP, no, process-manager or local-scheduler
// abort, preemption or a multi-server node, the load, and telemetry on.
func recycleConfig(fac, ssp, psp, abort, servers, load uint8, preempt bool) (Config, error) {
	cfg := Default()
	cfg.Spec.Factory = recycleFactories[int(fac)%len(recycleFactories)]
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

// runRecycling runs one replication of cfg with task recycling on or off.
func runRecycling(t *testing.T, cfg Config, seed uint64, recycle bool) recycleRun {
	t.Helper()
	log := newCallbackLog()
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
	dir := t.TempDir()
	paths, err := sys.Telemetry().ExportDir(dir)
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

// FuzzRecycleParity pins task recycling to its absence: any local/tree
// configuration, run once with the manager reclaiming tasks after their
// final outcome and once keeping every task, must give the same
// replication result, the same callback sequence and byte-identical
// telemetry exports. A subscriber or manager path that read a task after
// handing it back would read a poisoned or reused task and move one of
// them.
func FuzzRecycleParity(f *testing.F) {
	for i := uint8(0); i < 12; i++ {
		f.Add(uint64(i+1), i, i, i, i/3, i, uint8(6-i%4), i%5 == 4)
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

// TestReplicationAllocsFlat checks that a replication's allocations do not
// grow with its length: once the manager's slab and free lists reach the
// peak of tasks in flight, every further task reuses a reclaimed one. A
// Table 1 replication ten times longer may allocate at most 1.5 times as
// often; with a per-task allocation it allocated about ten times as often.
func TestReplicationAllocsFlat(t *testing.T) {
	mallocs := func(duration float64) float64 {
		cfg := Default()
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
}
