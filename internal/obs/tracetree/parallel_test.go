package tracetree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// chunkRecords is a stream of n global tasks over two replications: each
// a root span with two overlapping subtasks on a rotating pair of nodes,
// joined by parent edges and one pred link, so the forest has n trees,
// 3n spans and n links, and the node lanes stack.
func chunkRecords(n int) []obs.Record {
	var recs []obs.Record
	for k := 0; k < n; k++ {
		rep := 2 * k / n
		id := uint64(3*k + 1)
		at := float64(k % 50)
		recs = append(recs,
			span(rep, id, 0, "global", fmt.Sprintf("G%d", k), -1, at, at+9),
			span(rep, id+1, id, "subtask", "", k%4, at, at+4),
			span(rep, id+2, id, "subtask", "G.b", (k+1)%4, at+1, at+7),
			edge(rep, "parent", id, id+1, id, at),
			edge(rep, "parent", id, id+2, id, at),
			edge(rep, "pred", id+1, id+2, id, at+4),
		)
	}
	return recs
}

// chunkCounts are tree counts below one chunk, exactly one and two
// chunks (768 spans, three span chunks), and one past a chunk multiple.
var chunkCounts = []int{par.EncodeChunk - 1, par.EncodeChunk, par.EncodeChunk + 1, 2*par.EncodeChunk + 1}

// serialTrees renders the forest's tree JSONL one WriteTree at a time.
func serialTrees(t *testing.T, f *Forest) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tr := range f.Trees {
		if err := WriteTree(&b, tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// atProcs runs fn at GOMAXPROCS 1, 2 and 8, restoring the setting.
func atProcs(fn func(procs int)) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

// checkExports compares WriteTrees and WriteChrome with the serial
// renderings at every core count.
func checkExports(t *testing.T, name string, f *Forest) {
	t.Helper()
	wantTrees := serialTrees(t, f)
	var wantChrome bytes.Buffer
	if err := f.RefWriteChrome(&wantChrome); err != nil {
		t.Fatal(err)
	}
	atProcs(func(p int) {
		var trees, chrome bytes.Buffer
		if err := f.WriteTrees(&trees); err != nil {
			t.Fatalf("%s procs %d: %v", name, p, err)
		}
		if err := f.WriteChrome(&chrome); err != nil {
			t.Fatalf("%s procs %d: %v", name, p, err)
		}
		if !bytes.Equal(trees.Bytes(), wantTrees) {
			t.Errorf("%s procs %d: tree JSONL differs from the serial rendering", name, p)
		}
		if !bytes.Equal(chrome.Bytes(), wantChrome.Bytes()) {
			t.Errorf("%s procs %d: Chrome trace differs from the serial rendering", name, p)
		}
	})
}

// TestExportsMatchSerialAtChunkBoundaries: the chunked tree and Chrome
// encoders write the serial bytes at every core count, for tree and span
// counts on and around the chunk boundaries, an empty forest, the
// hand-built fixture and a forest with a sparse node id.
func TestExportsMatchSerialAtChunkBoundaries(t *testing.T) {
	checkExports(t, "empty", Build(nil))
	checkExports(t, "fixture", Build(fixture()))
	sparse := chunkRecords(9)
	sparse[1].Node = 1 << 20 // a node id far past the span count
	checkExports(t, "sparse node ids", Build(sparse))
	for _, n := range chunkCounts {
		f := Build(chunkRecords(n))
		if len(f.Trees) != n {
			t.Fatalf("%d tasks built %d trees", n, len(f.Trees))
		}
		checkExports(t, fmt.Sprintf("%d trees", n), f)
	}
}

// TestChromeUnresolvedLinks: links that do not resolve (a forest edited
// after Build) are skipped and the later flows renumbered exactly as the
// serial export does, wherever they fall among the chunks.
func TestChromeUnresolvedLinks(t *testing.T) {
	n := 3*par.EncodeChunk + 7
	for _, bad := range [][]int{{0}, {par.EncodeChunk + 3}, {5, 2 * par.EncodeChunk, n - 1}} {
		f := Build(chunkRecords(n))
		for _, k := range bad {
			f.Trees[k].Links[0].From = 1 << 40
		}
		checkExports(t, fmt.Sprintf("unresolved %v", bad), f)
	}
}

// TestErrorsPastFirstChunk: a NaN instant in a tree past the first chunk
// fails WriteTrees with the serial error naming that tree, after the
// trees before it, and fails WriteChrome with the serial error.
func TestErrorsPastFirstChunk(t *testing.T) {
	const bad = par.EncodeChunk + 44
	f := Build(chunkRecords(2*par.EncodeChunk + 1))
	f.Trees[bad].Links[0].At = math.NaN()
	var wantChrome bytes.Buffer
	wantErr := f.RefWriteChrome(&wantChrome)
	if wantErr == nil {
		t.Fatal("serial Chrome export accepted a NaN flow instant")
	}
	treeErr := WriteTree(&bytes.Buffer{}, f.Trees[bad])
	if treeErr == nil {
		t.Fatal("WriteTree accepted a NaN link instant")
	}
	wantTrees := serialTrees(t, &Forest{Trees: f.Trees[:bad]})
	atProcs(func(p int) {
		var trees bytes.Buffer
		err := f.WriteTrees(&trees)
		if err == nil || err.Error() != treeErr.Error() {
			t.Fatalf("procs %d: WriteTrees err = %v, want %v", p, err, treeErr)
		}
		if !bytes.Equal(trees.Bytes(), wantTrees) {
			t.Fatalf("procs %d: WriteTrees wrote %d bytes before failing, want the %d of the trees before it", p, trees.Len(), len(wantTrees))
		}
		if err := f.WriteChrome(&bytes.Buffer{}); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("procs %d: WriteChrome err = %v, want %v", p, err, wantErr)
		}
	})
}

// failAfter accepts limit bytes, then fails.
type failAfter struct {
	n, limit int
	err      error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, w.err
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriterFailsMidFile: a destination failing part way through either
// export hands its own error back, and no encoder goroutine is left.
func TestWriterFailsMidFile(t *testing.T) {
	boom := errors.New("disk full")
	f := Build(chunkRecords(4 * par.EncodeChunk))
	atProcs(func(p int) {
		before := runtime.NumGoroutine()
		for name, write := range map[string]func(w *failAfter) error{
			"trees":  func(w *failAfter) error { return f.WriteTrees(w) },
			"chrome": func(w *failAfter) error { return f.WriteChrome(w) },
		} {
			if err := write(&failAfter{limit: 100 << 10, err: boom}); err != boom {
				t.Errorf("procs %d: %s err = %v, want the writer's %v", p, name, err, boom)
			}
		}
		after := runtime.NumGoroutine()
		for try := 0; after > before && try < 100; try++ {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("procs %d: %d goroutines after the failed exports, %d before", p, after, before)
		}
	})
}

// TestWriteFilesTreesFail: when the tree file cannot be created,
// WriteFiles returns its error and leaves no Chrome file behind, though
// the two files are written side by side.
func TestWriteFilesTreesFail(t *testing.T) {
	dir := t.TempDir()
	treePath, chromePath := filepath.Join(dir, "trees.jsonl"), filepath.Join(dir, "trace.json")
	if err := os.Mkdir(treePath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Build(chunkRecords(par.EncodeChunk+1)).WriteFiles(treePath, chromePath); err == nil {
		t.Fatal("WriteFiles over a directory succeeded")
	}
	if _, err := os.Stat(chromePath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Chrome file after a failed tree file: %v, want it absent", err)
	}
}
