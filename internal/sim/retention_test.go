package sim

import (
	"runtime"
	"testing"

	"repro/internal/simtime"
)

// TestLiveHeapBounded guards against task storage that outlives its
// tasks. Leaf tasks come from per-replication slab chunks, and one live
// task keeps its whole chunk alive; if chunks ever point into each other
// (a composite task or a Children slice in a chunk), they pin one
// another in a chain and the live heap grows with the run instead of
// with the tasks in flight. The Table 1 cell at load 0.9 runs for 50,000
// time units while a probe collects garbage every 2,500 and records the
// heap in use; the peak must stay under 4 MB.
func TestLiveHeapBounded(t *testing.T) {
	const (
		horizon = 50000
		every   = 2500
		limit   = 4 << 20
	)
	cfg := Default()
	cfg.Spec.Load = 0.9
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
