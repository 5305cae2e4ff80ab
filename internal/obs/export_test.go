package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/par"
)

// shardOf returns replication rep's telemetry holding n spans and n
// edges under a budget no fold of a few such shards reaches.
func shardOf(rep, n int) *Telemetry {
	tel := New(Options{Enabled: true, MaxSpans: 1 << 16})
	tel.SetReplication(rep)
	name := tel.names.id("G.a")
	for i := 0; i < n; i++ {
		at := float64(i)
		sp := tel.pushSpan(nil, false)
		sp.kind, sp.task, sp.start, sp.end, sp.vdl, sp.node = kindSubtask, name, at, at+1.5, at+2, int32(i%3)
		tel.addEdge(edgeParent, uint64(i), uint64(i+1), 1, at, name)
	}
	return tel
}

// serialLines is the serial reference for the JSONL writers: the
// records written one WriteRecord at a time, up to the first failure,
// and that failure named "obs: write <what> <i>".
func serialLines(recs []Record, what string) ([]byte, error) {
	var b bytes.Buffer
	for i, rec := range recs {
		if err := WriteRecord(&b, rec); err != nil {
			return b.Bytes(), fmt.Errorf("obs: write %s %d: %w", what, i, err)
		}
	}
	return b.Bytes(), nil
}

// TestRecordErrorPastFirstChunk: a NaN planted in a span and an edge past
// the first chunk fails the writers with the serial error text, naming
// the record's global index across shards, after exactly the records
// before it; ExportDir wraps the span error and lists no file.
func TestRecordErrorPastFirstChunk(t *testing.T) {
	const per, bad = 2 * par.EncodeChunk, 100 // global index per+bad, in shard 1
	shards := []*Telemetry{shardOf(0, per), shardOf(1, per)}
	shards[1].spans.get(bad).start = math.NaN()
	shards[1].edges.get(bad).at = math.Inf(1)
	m := NewMerged()
	for _, tel := range shards {
		if err := tel.MergeInto(m); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	for _, c := range []struct {
		what  string
		recs  []Record
		write func(w *bytes.Buffer) error
	}{
		{"merged span", snap.Spans, func(w *bytes.Buffer) error { return m.WriteSpans(w) }},
		{"merged edge", snap.Edges, func(w *bytes.Buffer) error { return m.WriteEdges(w) }},
	} {
		want, wantErr := serialLines(c.recs, c.what)
		if wantErr == nil {
			t.Fatalf("%s: the serial writer accepted the planted value", c.what)
		}
		var got bytes.Buffer
		if err := c.write(&got); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: err = %v, want %v", c.what, err, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: wrote %d bytes before failing, want the serial %d", c.what, got.Len(), len(want))
		}
	}
	if !strings.Contains(fmt.Sprint(m.WriteSpans(&bytes.Buffer{})), fmt.Sprintf("merged span %d:", per+bad)) {
		t.Errorf("the merged span error does not name global index %d", per+bad)
	}
	paths, err := m.ExportDir(t.TempDir())
	if want := "obs: export " + SpansFile + ": obs: write merged span"; err == nil || !strings.HasPrefix(err.Error(), want) || len(paths) != 0 {
		t.Errorf("ExportDir = %v, %v; want no paths and an error starting %q", paths, err, want)
	}
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

// TestWriterFailsMidLog: a destination failing part way through the span
// log gets its error back, wrapped with the index of the first record
// it refused (the start of a chunk), and no goroutine is left behind.
func TestWriterFailsMidLog(t *testing.T) {
	boom := errors.New("disk full")
	m := NewMerged()
	for rep := 0; rep < 3; rep++ {
		if err := shardOf(rep, 3*par.EncodeChunk).MergeInto(m); err != nil {
			t.Fatal(err)
		}
	}
	var first bytes.Buffer
	if err := m.WriteSpans(&first); err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		w := &failAfter{limit: first.Len() / 2, err: boom}
		err := m.WriteSpans(w)
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "obs: write merged span ") {
			t.Fatalf("procs %d: err = %v, want an obs: write merged span error wrapping %v", procs, err, boom)
		}
		var at int
		if _, serr := fmt.Sscanf(err.Error(), "obs: write merged span %d:", &at); serr != nil || at%par.EncodeChunk != 0 {
			t.Errorf("procs %d: %v does not name a chunk's first record", procs, err)
		}
		after := runtime.NumGoroutine()
		for try := 0; after > before && try < 100; try++ {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("procs %d: %d goroutines after the failed write, %d before", procs, after, before)
		}
	}
}

// TestExportDirFailingFile: when one file of the bundle cannot be
// created, ExportDir returns the paths of the files before it, in order,
// and that file's error, though the files are written side by side, and
// leaves no file past it on disk.
func TestExportDirFailingFile(t *testing.T) {
	m := NewMerged()
	if err := shardOf(0, par.EncodeChunk+1).MergeInto(m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, ExemplarsFile), 0o755); err != nil {
		t.Fatal(err)
	}
	paths, err := m.ExportDir(dir)
	want := []string{filepath.Join(dir, SpansFile), filepath.Join(dir, EdgesFile)}
	if err == nil || !strings.HasPrefix(err.Error(), "obs: export "+ExemplarsFile+": ") || !slices.Equal(paths, want) {
		t.Fatalf("ExportDir = %v, %v; want %v and an obs: export %s error", paths, err, want, ExemplarsFile)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if wantLeft := []string{EdgesFile, ExemplarsFile, SpansFile}; !slices.Equal(left, wantLeft) {
		t.Fatalf("ExportDir left %v in the directory, want %v: the files past the failing one removed", left, wantLeft)
	}
}

// The helpers below read a telemetry that has not been handed to a fold
// yet, for the tests of package obs_test. After MergeInto its span and
// edge logs read empty; read the fold's Snapshot instead.

// Spans returns tel's retained span log, oldest first.
func Spans(tel *Telemetry) []Record { return tel.SpansTail(0) }

// Exemplars returns tel's exemplar selection in its deterministic
// order.
func Exemplars(tel *Telemetry) []Record { return tel.ex.snapshot(tel.names.list).Records() }

// SpanCount returns how many spans tel's ring retains.
func SpanCount(tel *Telemetry) int { return tel.spans.n }

// TotalSpans returns how many spans tel ever recorded.
func TotalSpans(tel *Telemetry) uint64 { return tel.nextID }

// DroppedSpans returns how many spans tel's ring evicted.
func DroppedSpans(tel *Telemetry) uint64 { return tel.droppedSpans.Value() }

// GlobalCounts returns how many global spans of tel resolved and how
// many of those missed, from its outcome counters.
func GlobalCounts(tel *Telemetry) (resolved, missed int) {
	return int(tel.doneGlobal.Value()), int(tel.missedGlobal.Value())
}

// RingBytes returns the bytes of a full span ring and a full edge ring
// at the budget maxSpans.
func RingBytes(maxSpans int) int {
	return maxSpans * int(unsafe.Sizeof(span{})+unsafe.Sizeof(edge{}))
}

// FreshChunkBytes returns the bytes of the ring chunks that telemetry
// drawing from m allocated because m's free lists were empty.
func FreshChunkBytes(m *Merged) int {
	m.freeSpans.mu.Lock()
	defer m.freeSpans.mu.Unlock()
	m.freeEdges.mu.Lock()
	defer m.freeEdges.mu.Unlock()
	return m.freeSpans.fresh*int(unsafe.Sizeof(span{})) + m.freeEdges.fresh*int(unsafe.Sizeof(edge{}))
}

// FreeChunks returns how many chunks m's free lists hold.
func FreeChunks(m *Merged) int {
	m.freeSpans.mu.Lock()
	defer m.freeSpans.mu.Unlock()
	m.freeEdges.mu.Lock()
	defer m.freeEdges.mu.Unlock()
	return len(m.freeSpans.chunks) + len(m.freeEdges.chunks)
}

// IdleChunks returns how many ring chunks m's logs hold that back no
// kept value, and how many they hold in all.
func IdleChunks(m *Merged) (idle, held int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, h := idleChunks(&m.spans)
	j, k := idleChunks(&m.edges)
	return i + j, h + k
}

func idleChunks[T any](f *foldLog[T]) (idle, held int) {
	for _, l := range f.logs {
		if l.ring == nil {
			continue
		}
		for c, chunk := range l.ring.chunks {
			if chunk != nil {
				held++
				if !l.ring.keeps(c, l.lo) {
					idle++
				}
			}
		}
	}
	return idle, held
}
