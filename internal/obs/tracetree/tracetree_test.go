package tracetree

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// span builds a minimal span record for assembly tests.
func span(rep int, id, root uint64, kind, task string, node int, start, end float64) obs.Record {
	r := obs.Record{
		Schema: obs.SchemaVersion, Type: "span", Kind: kind, Task: task,
		Node: node, ID: id, Root: root, Rep: rep, Start: obs.F(start),
	}
	if end >= start {
		r.End = obs.F(end)
	}
	return r
}

func edge(rep int, kind string, from, to, root uint64, at float64) obs.Record {
	return obs.Record{
		Schema: obs.SchemaVersion, Type: "edge", Kind: kind, Task: "x",
		Node: -1, ID: to, Root: root, Rep: rep, From: from, At: obs.F(at),
	}
}

// fixture is a two-replication stream: rep 0 holds a global with a stage,
// two subtasks in series, a retried subtask, a local task, and an
// injection marker with its edge; rep 1 reuses the same span ids to prove
// replication isolation. One edge references an evicted span.
func fixture() []obs.Record {
	return []obs.Record{
		span(0, 1, 0, "global", "G1", -1, 0, 20),
		span(0, 2, 1, "stage", "G1.st", -1, 0, 12),
		span(0, 3, 1, "subtask", "G1.a", 0, 0, 5),
		span(0, 4, 1, "subtask", "G1.b", 1, 5, 12),
		span(0, 5, 0, "local", "L1", 0, 1, 2),
		span(0, 6, 0, "inject", "burst-local@3", -1, 3, 3),
		span(0, 7, 1, "subtask", "G1.a", 0, 6, 8),
		edge(0, "parent", 1, 2, 1, 0),
		edge(0, "parent", 2, 3, 1, 0),
		edge(0, "parent", 2, 4, 1, 5),
		edge(0, "pred", 3, 4, 1, 5),
		edge(0, "retry", 3, 7, 1, 6),
		edge(0, "inject", 6, 1, 1, 3),
		edge(0, "pred", 99, 4, 1, 5), // evicted endpoint: dropped
		span(1, 1, 0, "global", "G1", -1, 2, 9),
		span(1, 2, 1, "subtask", "G1.a", 2, 2, 9),
		edge(1, "parent", 1, 2, 1, 2),
	}
}

func TestBuildAssemblesForest(t *testing.T) {
	f := Build(fixture())
	if len(f.Trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(f.Trees))
	}
	if f.Orphans != 2 { // the local task and the injection marker
		t.Errorf("orphans = %d, want 2", f.Orphans)
	}
	if f.Dropped != 1 { // the edge with the evicted endpoint
		t.Errorf("dropped = %d, want 1", f.Dropped)
	}

	tr := f.Tree(0, 1)
	if tr == nil {
		t.Fatal("tree (0,1) missing")
	}
	if tr.Spans != 5 {
		t.Errorf("tree spans = %d, want 5", tr.Spans)
	}
	// Structure: root 1 → {stage 2 → {3, 4}, retried 7 (no parent edge)}.
	if len(tr.Root.Children) != 2 || tr.Root.Children[0].Span.ID != 2 || tr.Root.Children[1].Span.ID != 7 {
		t.Fatalf("root children wrong: %+v", tr.Root.Children)
	}
	st := tr.Root.Children[0]
	if len(st.Children) != 2 || st.Children[0].Span.ID != 3 || st.Children[1].Span.ID != 4 {
		t.Fatalf("stage children wrong: %+v", st.Children)
	}
	// Links sorted by (to, from, kind): inject→1, pred→4, retry→7.
	want := []Link{
		{Kind: "inject", From: 6, To: 1, At: 3},
		{Kind: "pred", From: 3, To: 4, At: 5},
		{Kind: "retry", From: 3, To: 7, At: 6},
	}
	if len(tr.Links) != len(want) {
		t.Fatalf("links = %+v, want %+v", tr.Links, want)
	}
	for i := range want {
		if tr.Links[i] != want[i] {
			t.Errorf("link[%d] = %+v, want %+v", i, tr.Links[i], want[i])
		}
	}

	// Replication isolation: rep 1 reuses span ids without cross-talk.
	tr1 := f.Tree(1, 1)
	if tr1 == nil || tr1.Spans != 2 || len(tr1.Links) != 0 {
		t.Fatalf("rep-1 tree wrong: %+v", tr1)
	}
	if tr1.Find(2).Span.Node != 2 {
		t.Errorf("rep-1 subtask crossed replications")
	}
}

func TestTreesForTask(t *testing.T) {
	f := Build(fixture())
	if got := f.TreesForTask("G1"); len(got) != 2 {
		t.Errorf("G1 matched %d trees, want 2", len(got))
	}
	if got := f.TreesForTask("G1.b"); len(got) != 1 || got[0].Rep != 0 {
		t.Errorf("G1.b matched %+v, want the rep-0 tree", got)
	}
	if got := f.TreesForTask("nope"); len(got) != 0 {
		t.Errorf("unknown task matched %d trees", len(got))
	}
}

// TestWriteTreesDeterministic proves the JSONL export is a pure function
// of the record set: reversing the input order changes nothing.
func TestWriteTreesDeterministic(t *testing.T) {
	recs := fixture()
	var a bytes.Buffer
	if err := Build(recs).WriteTrees(&a); err != nil {
		t.Fatal(err)
	}
	rev := make([]obs.Record, len(recs))
	for i := range recs {
		rev[len(recs)-1-i] = recs[i]
	}
	var b bytes.Buffer
	if err := Build(rev).WriteTrees(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("tree JSONL depends on input order:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var tj struct {
		Rep   int    `json:"rep"`
		Root  uint64 `json:"root"`
		Spans int    `json:"spans"`
		Tree  struct {
			Children []json.RawMessage `json:"children"`
		} `json:"tree"`
		Links []linkJSON `json:"links"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &tj); err != nil {
		t.Fatal(err)
	}
	if tj.Rep != 0 || tj.Root != 1 || tj.Spans != 5 || len(tj.Tree.Children) != 2 || len(tj.Links) != 3 {
		t.Errorf("first tree line wrong: %s", lines[0])
	}
}

// TestEvictionDegradesDeterministically models ring eviction: removing
// early spans drops the edges that referenced them and orphans the spans
// whose root is gone, but the surviving assembly is unchanged between
// identical inputs.
func TestEvictionDegradesDeterministically(t *testing.T) {
	recs := fixture()
	var evicted []obs.Record
	for _, r := range recs {
		if r.Type == "span" && r.Rep == 0 && r.ID <= 2 {
			continue // root and stage evicted
		}
		evicted = append(evicted, r)
	}
	f := Build(evicted)
	if len(f.Trees) != 1 || f.Trees[0].Rep != 1 {
		t.Fatalf("expected only the rep-1 tree, got %d trees", len(f.Trees))
	}
	// Rep-0 spans 3,4,7 lost their root; 5 and 6 were already treeless.
	if f.Orphans != 5 {
		t.Errorf("orphans = %d, want 5", f.Orphans)
	}
	// Every rep-0 edge is gone: 6 touching evicted spans + the one that
	// already referenced span 99.
	if f.Dropped != 7 {
		t.Errorf("dropped = %d, want 7", f.Dropped)
	}
	var x, y bytes.Buffer
	if err := f.WriteTrees(&x); err != nil {
		t.Fatal(err)
	}
	if err := Build(evicted).WriteTrees(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("degraded export not deterministic")
	}
}

func TestWriteChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := Build(fixture()).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	count := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		count[ph]++
		if ph == "M" {
			if args, ok := ev["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		}
	}
	// Leaves: rep0 spans 3,4,5,7 and rep1 span 2 → five X events.
	if count["X"] != 5 {
		t.Errorf("X events = %d, want 5", count["X"])
	}
	// Async: rep0 root, stage, inject marker; rep1 root → four b/e pairs.
	if count["b"] != 4 || count["e"] != 4 {
		t.Errorf("async events = %d b / %d e, want 4/4", count["b"], count["e"])
	}
	// Flows: three surviving links in rep 0.
	if count["s"] != 3 || count["f"] != 3 {
		t.Errorf("flow events = %d s / %d f, want 3/3", count["s"], count["f"])
	}
	for _, n := range []string{"rep0/globals", "rep0/node0", "rep0/node1", "rep1/node2"} {
		if !names[n] {
			t.Errorf("missing process_name %q (have %v)", n, names)
		}
	}
	// Determinism.
	var again bytes.Buffer
	if err := Build(fixture()).WriteChrome(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("chrome export not deterministic")
	}
}

// TestChromeOccupancyLanes pins the greedy lane assignment: overlapping
// spans on one node take distinct tids, and a lane is reused once its
// previous span has ended.
func TestChromeOccupancyLanes(t *testing.T) {
	recs := []obs.Record{
		span(0, 1, 0, "global", "G", -1, 0, 10),
		span(0, 2, 1, "subtask", "G.a", 0, 0, 4),
		span(0, 3, 1, "subtask", "G.b", 0, 1, 3), // overlaps a → lane 1
		span(0, 4, 1, "subtask", "G.c", 0, 3, 6), // lane 1 free again
		edge(0, "parent", 1, 2, 1, 0),
		edge(0, "parent", 1, 3, 1, 1),
		edge(0, "parent", 1, 4, 1, 3),
	}
	var buf bytes.Buffer
	if err := Build(recs).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []refChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tid[ev.Name] = ev.Tid
		}
	}
	if tid["G.a"] != 0 || tid["G.b"] != 1 || tid["G.c"] != 1 {
		t.Errorf("lanes = %v, want G.a:0 G.b:1 G.c:1", tid)
	}
}

// refLaneOrder is the group sort layout used before it sorted keys:
// span indices compared through the records.
type refLaneOrder struct {
	all []Node
	g   []int32
}

func (o *refLaneOrder) Len() int      { return len(o.g) }
func (o *refLaneOrder) Swap(i, j int) { o.g[i], o.g[j] = o.g[j], o.g[i] }
func (o *refLaneOrder) Less(i, j int) bool {
	a, b := &o.all[o.g[i]].Span, &o.all[o.g[j]].Span
	if *a.Start != *b.Start {
		return *a.Start < *b.Start
	}
	return a.ID < b.ID
}

// TestChromeLanesWithNaNStarts pins the lanes of one node's spans when
// some starts are NaN, which no order ranks: the key sort must leave the
// spans in the order the record sort left them, and so draw every span
// on the same lane. Forty spans take the sort past its insertion-sort
// cutoff.
func TestChromeLanesWithNaNStarts(t *testing.T) {
	recs := []obs.Record{span(0, 1, 0, "global", "G", -1, 0, 100)}
	for id := uint64(2); id < 42; id++ {
		start := float64((id * 7) % 13)
		if id%5 == 0 {
			start = math.NaN()
		}
		rec := span(0, id, 1, "subtask", fmt.Sprintf("G.%d", id), 0, start, start+float64(id%4))
		if id%6 == 0 {
			rec.End = nil // open at the horizon
		}
		recs = append(recs, rec)
	}
	f := Build(recs)
	got := f.layout().lane

	var g []int32 // the drawn leaf spans, in Forest.all order
	for i := range f.all {
		if f.all[i].Span.Node >= 0 {
			g = append(g, int32(i))
		}
	}
	sort.Sort(&refLaneOrder{all: f.all, g: g})
	var lanes []float64
	for _, i := range g {
		sp := &f.all[i].Span
		end := *sp.Start
		if sp.End != nil {
			end = *sp.End
		}
		placed := -1
		for j := range lanes {
			if lanes[j] <= *sp.Start {
				placed = j
				break
			}
		}
		if placed < 0 {
			placed = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[placed] = end
		if got[i] != int32(placed) {
			t.Errorf("span %d (start %v): lane %d, the record sort gives %d", sp.ID, *sp.Start, got[i], placed)
		}
	}
	if len(g) != 40 {
		t.Fatalf("%d drawn spans, want 40", len(g))
	}
}
