package obs_test

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// recycleConfig is a 4-replication observed run whose span and edge
// rings each wrap several times under a budget of eight chunks.
func recycleConfig(workers int) sim.Config {
	cfg := smallConfig()
	cfg.Duration = 20000
	cfg.Replications = 4
	cfg.Workers = workers
	cfg.Obs = obs.Options{Enabled: true, MaxSpans: 8 << 10}
	return cfg
}

// TestRunRecyclesRingChunks is the allocation guard of chunk recycling.
// On one worker the first two replications each fill a span and an
// edge ring before any trim releases a chunk; the later ones draw what
// the trims released, short only of the chunks the kept shares
// straddle, so the run allocates two to two and a half rings' worth.
// Without recycling every replication allocates its own rings, four
// rings' worth. When Run returns, the fold's free lists are empty and
// every chunk its logs hold backs a kept value.
func TestRunRecyclesRingChunks(t *testing.T) {
	cfg := recycleConfig(1)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total, budget := res.Obs.Snapshot().TotalSpans, uint64(cfg.Replications*cfg.Obs.MaxSpans); total < 2*budget {
		t.Fatalf("%d spans in all: the rings do not wrap", total)
	}
	fresh, ring := obs.FreshChunkBytes(res.Obs), obs.RingBytes(cfg.Obs.MaxSpans)
	t.Logf("allocated %d B of ring chunks, %.2f times one span and edge ring (%d B)", fresh, float64(fresh)/float64(ring), ring)
	if fresh < 2*ring {
		t.Errorf("allocated %d B of ring chunks through the fold, less than the first two replications' rings (%d B each): the replications do not draw from the fold", fresh, ring)
	}
	if 2*fresh >= 5*ring {
		t.Errorf("allocated %d B of ring chunks, 2.5 or more times one span and edge ring (%d B)", fresh, ring)
	}
	if n := obs.FreeChunks(res.Obs); n != 0 {
		t.Errorf("the fold holds %d free chunks after Run", n)
	}
	if idle, held := obs.IdleChunks(res.Obs); idle != 0 || held == 0 {
		t.Errorf("the fold's logs hold %d chunks, %d of them backing no kept value", held, idle)
	}
}

// TestRecycledChunksExportIdentically: recycled chunks that cross
// workers change no exported byte.
func TestRecycledChunksExportIdentically(t *testing.T) {
	export := func(workers int) (spans, edges []byte) {
		res, err := sim.Run(recycleConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		var s, e bytes.Buffer
		if err := res.Obs.WriteSpans(&s); err != nil {
			t.Fatal(err)
		}
		if err := res.Obs.WriteEdges(&e); err != nil {
			t.Fatal(err)
		}
		return s.Bytes(), e.Bytes()
	}
	s1, e1 := export(1)
	s3, e3 := export(3)
	if !bytes.Equal(s1, s3) || !bytes.Equal(e1, e3) {
		t.Fatalf("exports differ between 1 and 3 workers")
	}
}
