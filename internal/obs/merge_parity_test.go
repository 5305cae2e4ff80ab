package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// parityConfig returns a short observed cell of one of three shapes, so
// the shards between them carry every span kind and edge kind telemetry
// records: the Table 1 baseline (parallel trees), serial-parallel trees
// under local-scheduler abort (stage spans, retries), and fork-join DAGs
// under process-manager abort (pred and abort edges, DAG shapes).
func parityConfig(variant, maxSpans int) sim.Config {
	cfg := sim.Default()
	cfg.Duration = 400
	cfg.Warmup = 50
	cfg.Replications = 1
	switch variant % 3 {
	case 1:
		cfg.Spec.Factory = workload.SerialParallel{Stages: 3, Fanout: 2}
		cfg.Spec.Load = 0.9
		cfg.Abort = sim.AbortLocalScheduler
	case 2:
		cfg.Spec.Factory = nil
		cfg.Spec.DagFactory = workload.ForkJoinDag{Stages: 3, Fanout: 3, CrossProb: 0.3}
		cfg.Spec.Load = 0.9
		cfg.Abort = sim.AbortProcessManager
	}
	cfg.Obs = obs.Options{Enabled: true, MaxSpans: maxSpans}
	return cfg
}

// observedShard runs replication rep of the cell and returns its
// finished telemetry.
func observedShard(tb testing.TB, cfg sim.Config, rep int) *obs.Telemetry {
	tb.Helper()
	sys, err := sim.NewSystem(cfg, sim.RepSeed(cfg.Seed, rep))
	if err != nil {
		tb.Fatal(err)
	}
	sys.Telemetry().SetReplication(rep)
	if err := sys.Start(); err != nil {
		tb.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	return sys.Telemetry()
}

// readBundle returns every file of an export directory by name.
func readBundle(tb testing.TB, dir string, paths []string) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, p)
		out[rel] = b
	}
	return out
}

// checkMergedParity folds the shards, in the given arrival order, into
// a Merged through Telemetry.MergeInto and into the record-based
// reference fold; every export, the snapshot, the summary, the analysis
// span set and the trim count must agree.
func checkMergedParity(t *testing.T, tels []*obs.Telemetry, order []int) {
	t.Helper()
	m, ref := obs.NewMerged(), obs.NewRefMerged()
	for _, rep := range order {
		if err := ref.Add(tels[rep].Snapshot(0)); err != nil {
			t.Fatal(err)
		}
		if err := tels[rep].MergeInto(m); err != nil {
			t.Fatal(err)
		}
	}
	if m.Shards() != ref.Shards() || m.Pending() != 0 {
		t.Fatalf("shards %d pending %d, reference folded %d", m.Shards(), m.Pending(), ref.Shards())
	}
	if m.Trimmed() != ref.Trimmed() {
		t.Fatalf("trimmed %d, reference %d", m.Trimmed(), ref.Trimmed())
	}
	got, want := m.Snapshot(), ref.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot differs from the reference:\n got %d spans %d edges\nwant %d spans %d edges",
			len(got.Spans), len(got.Edges), len(want.Spans), len(want.Edges))
	}
	if s := m.Summary(); s != want.Summary() {
		t.Fatalf("summary differs from the reference:\n%s\nwant\n%s", s, want.Summary())
	}
	if a, b := got.SpansForAnalysis(), obs.RefSpansForAnalysis(want); !reflect.DeepEqual(a, b) {
		t.Fatalf("analysis spans differ from the reference: %d vs %d", len(a), len(b))
	}
	gotDir, wantDir := t.TempDir(), t.TempDir()
	gotPaths, err := m.ExportDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	wantPaths, err := ref.ExportDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	gb, wb := readBundle(t, gotDir, gotPaths), readBundle(t, wantDir, wantPaths)
	if len(gb) != len(wb) {
		t.Fatalf("exported %d files, reference %d", len(gb), len(wb))
	}
	for name, w := range wb {
		if !bytes.Equal(gb[name], w) {
			t.Fatalf("%s differs from the reference export", name)
		}
	}
	for _, c := range []struct {
		name  string
		write func(w *strings.Builder) error
		file  string
	}{
		{"WriteSpans", func(w *strings.Builder) error { return m.WriteSpans(w) }, obs.SpansFile},
		{"WriteEdges", func(w *strings.Builder) error { return m.WriteEdges(w) }, obs.EdgesFile},
		{"WriteExemplars", func(w *strings.Builder) error { return m.WriteExemplars(w) }, obs.ExemplarsFile},
		{"WritePrometheus", func(w *strings.Builder) error { return m.WritePrometheus(w) }, obs.MetricsFile},
	} {
		var b strings.Builder
		if err := c.write(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != string(wb[c.file]) {
			t.Fatalf("%s differs from the reference %s", c.name, c.file)
		}
	}
}

// FuzzMergedParity pins the compact fold to the record-based reference:
// 1–12 shards, a budget of 1–4096 spans, any arrival order. The seeds
// at budgets around one and two chunks (1023, 1024, 1025, 2048) trim
// shards of about 1,400 to 2,600 spans both ways: shares of a chunk or
// more release the chunks outside the kept tail, smaller ones copy the
// tail out, and a short last chunk is not recycled.
func FuzzMergedParity(f *testing.F) {
	f.Add(uint8(3), uint16(64), uint64(0), uint8(0))
	f.Add(uint8(0), uint16(0), uint64(1), uint8(1))
	f.Add(uint8(11), uint16(4095), uint64(7), uint8(2))
	f.Add(uint8(6), uint16(9), uint64(42), uint8(4))
	f.Add(uint8(4), uint16(500), uint64(3), uint8(5))
	f.Add(uint8(1), uint16(1022), uint64(5), uint8(1))
	f.Add(uint8(2), uint16(1023), uint64(9), uint8(2))
	f.Add(uint8(3), uint16(1024), uint64(11), uint8(1))
	f.Add(uint8(1), uint16(2047), uint64(1), uint8(1))
	f.Add(uint8(5), uint16(2047), uint64(13), uint8(2))
	cache := map[[3]int]*obs.Telemetry{}
	f.Fuzz(func(t *testing.T, nShards uint8, maxSpans uint16, perm uint64, variant uint8) {
		n := 1 + int(nShards)%12
		budget := 1 + int(maxSpans)%4096
		if len(cache) > 256 {
			clear(cache)
		}
		tels := make([]*obs.Telemetry, n)
		for rep := range tels {
			k := [3]int{int(variant) % 3, budget, rep}
			if cache[k] == nil {
				cache[k] = observedShard(t, parityConfig(k[0], budget), rep)
			}
			// MergeInto hands a telemetry's logs over once: fold a
			// clone, so the cached shard serves later inputs too.
			tels[rep] = cache[k].Clone()
		}
		// Arrival order: a Fisher–Yates shuffle driven by perm.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(perm % uint64(i+1))
			perm /= uint64(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		checkMergedParity(t, tels, order)
	})
}

// TestTelemetryRecordsRoundTrip converts every span and edge that
// telemetry holds after a run — ring, exemplars, spans evicted while
// open — to its Record and back, for each cell shape and a tight and a
// roomy budget: a Record must carry everything of the value it renders,
// so the record-based reference fold sees what the compact fold holds.
func TestTelemetryRecordsRoundTrip(t *testing.T) {
	for variant := 0; variant < 3; variant++ {
		for _, budget := range []int{7, 1 << 16} {
			tel := observedShard(t, parityConfig(variant, budget), 2)
			if obs.TotalSpans(tel) == 0 {
				t.Fatalf("variant %d recorded no spans", variant)
			}
			if err := obs.CheckRoundTrip(tel); err != nil {
				t.Errorf("variant %d budget %d: %v", variant, budget, err)
			}
		}
	}
}
