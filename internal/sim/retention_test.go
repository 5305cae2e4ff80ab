package sim

import (
	"runtime"
	"testing"

	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestLiveHeapBounded guards against task storage that outlives its
// tasks. Leaves come from slab chunks, and one live task keeps its whole
// chunk alive; if chunks ever point into each other (a composite task or
// a Children slice in a chunk), they pin one another in a chain and the
// live heap grows with the run instead of with the tasks in flight. Each
// case runs 50,000 time units while a probe collects garbage every 2,500
// and records the heap in use; the peak must stay under 4 MB. The Table 1
// cell at load 0.9 recycles every task. In the fork-join DAG cell under
// process-manager abort, recycled locals share chunks with recycled DAG
// vertices, and each reclaimed DAG record keeps its own storage.
func TestLiveHeapBounded(t *testing.T) {
	table1 := Default()
	table1.Spec.Load = 0.9
	dag := Default()
	dag.Spec.Factory = nil
	dag.Spec.DagFactory = workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3}
	dag.Spec.Load = 0.85
	dag.SSP = sda.EQF{}
	dag.Abort = AbortProcessManager
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"table1", table1}, {"forkjoin-dag", dag}} {
		t.Run(c.name, func(t *testing.T) { liveHeapBounded(t, c.cfg) })
	}
}

func liveHeapBounded(t *testing.T, cfg Config) {
	const (
		horizon = 50000
		every   = 2500
		limit   = 4 << 20
	)
	cfg.Duration = horizon - cfg.Warmup
	sys, err := NewSystem(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	probe := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
	}
	// Probes stop before the horizon, so the run drains as usual.
	for at := simtime.Time(every); at < horizon; at += every {
		if _, err := sys.Eng.At(at, probe); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	t.Logf("peak live heap %.2f MB", float64(peak)/(1<<20))
	if peak > limit {
		t.Errorf("peak live heap %.2f MB exceeds %d MB", float64(peak)/(1<<20), limit>>20)
	}
}
