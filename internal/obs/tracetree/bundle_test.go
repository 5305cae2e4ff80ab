package tracetree_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/tracetree"
	"repro/internal/par"
	"repro/internal/sim"
)

// foldOf runs three observed replications of a short Table 1 cell under
// a span budget of spans and returns their fold. Each shard retains more
// than a third of the budget, so the merge trims every shard to
// ceil(spans/3) spans and edges.
func foldOf(t *testing.T, spans int) *obs.Merged {
	t.Helper()
	cfg := sim.Default()
	cfg.Duration = 1500
	cfg.Warmup = 100
	cfg.Replications = 3
	cfg.Obs = obs.Options{Enabled: true, MaxSpans: spans}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Obs
}

// renderBundle writes the fold's ExportDir into dir and returns every
// file it wrote plus the tree JSONL and Chrome trace of its snapshot.
func renderBundle(t *testing.T, m *obs.Merged, dir string) map[string][]byte {
	t.Helper()
	paths, err := m.ExportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	snap := m.Snapshot()
	f := tracetree.Build(append(append([]obs.Record(nil), snap.Spans...), snap.Edges...))
	var trees, chrome bytes.Buffer
	if err := f.WriteTrees(&trees); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	out["tracetree.jsonl"], out["trace.chrome.json"] = trees.Bytes(), chrome.Bytes()
	return out
}

// TestBundleIndependentOfCores renders one fold's ExportDir, WriteTrees
// and WriteChrome at GOMAXPROCS 1, 2 and 8, with span and edge logs
// below one chunk, exactly three chunks and one past two chunks: every
// byte matches the single-core rendering, and the tree JSONL matches
// the trees written one at a time.
func TestBundleIndependentOfCores(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, want := range []int{par.EncodeChunk - 1, 3 * par.EncodeChunk, 2*par.EncodeChunk + 1} {
		m := foldOf(t, want)
		snap := m.Snapshot()
		if len(snap.Spans) != want || len(snap.Edges) != want {
			t.Fatalf("budget %d: fold keeps %d spans and %d edges, want %d of each", want, len(snap.Spans), len(snap.Edges), want)
		}
		var serial bytes.Buffer
		for _, tr := range tracetree.Build(append(append([]obs.Record(nil), snap.Spans...), snap.Edges...)).Trees {
			if err := tracetree.WriteTree(&serial, tr); err != nil {
				t.Fatal(err)
			}
		}
		var base map[string][]byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := renderBundle(t, m, t.TempDir())
			if base == nil {
				base = got
				if !bytes.Equal(got["tracetree.jsonl"], serial.Bytes()) {
					t.Fatalf("budget %d: tree JSONL differs from the trees written one at a time", want)
				}
				continue
			}
			if len(got) != len(base) {
				t.Fatalf("budget %d procs %d: %d files, want %d", want, procs, len(got), len(base))
			}
			for name, b := range base {
				if !bytes.Equal(got[name], b) {
					t.Errorf("budget %d procs %d: %s differs from the single-core rendering", want, procs, name)
				}
			}
		}
	}
}
