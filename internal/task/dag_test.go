package task

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestDagBuildErrors(t *testing.T) {
	d := NewDag("g")
	if _, err := d.AddTask(nil); !errors.Is(err, ErrNilChild) {
		t.Errorf("AddTask(nil) = %v, want ErrNilChild", err)
	}
	if _, err := d.AddTask(MustSerial("s", MustSimple("x", 0, 1))); !errors.Is(err, ErrNotSimple) {
		t.Errorf("AddTask(serial) = %v, want ErrNotSimple", err)
	}
	a := d.MustAddTask(MustSimple("a", 0, 1))
	b := d.MustAddTask(MustSimple("b", 0, 1))
	other := NewDag("h")
	c := other.MustAddTask(MustSimple("c", 0, 1))
	if err := d.AddEdge(a, c); !errors.Is(err, ErrForeignNode) {
		t.Errorf("cross-dag edge = %v, want ErrForeignNode", err)
	}
	if err := d.AddEdge(a, a); !errors.Is(err, ErrSelfEdge) {
		t.Errorf("self edge = %v, want ErrSelfEdge", err)
	}
	d.MustAddEdge(a, b)
	if err := d.AddEdge(a, b); !errors.Is(err, ErrDupEdge) {
		t.Errorf("duplicate edge = %v, want ErrDupEdge", err)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("valid dag rejected: %v", err)
	}
	if err := NewDag("empty").Validate(); !errors.Is(err, ErrEmptyDag) {
		t.Errorf("empty dag = %v, want ErrEmptyDag", err)
	}
}

func TestDagCycleDetected(t *testing.T) {
	d := NewDag("cyc")
	a := d.MustAddTask(MustSimple("a", 0, 1))
	b := d.MustAddTask(MustSimple("b", 0, 1))
	c := d.MustAddTask(MustSimple("c", 0, 1))
	d.MustAddEdge(a, b)
	d.MustAddEdge(b, c)
	d.MustAddEdge(c, a)
	if err := d.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
	if _, err := d.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Fatalf("TopoOrder = %v, want ErrCycle", err)
	}
}

// TestTopoOrderMemoInvalidated checks that the memoized topological order
// never outlives a structural change: an edge that reorders the graph, a
// new vertex, and finally an edge that closes a cycle, each added after
// the order (and everything sharing it) was computed.
func TestTopoOrderMemoInvalidated(t *testing.T) {
	order := func(d *Dag) string {
		t.Helper()
		topo, err := d.TopoOrder()
		if err != nil {
			t.Fatalf("TopoOrder: %v", err)
		}
		var names []string
		for _, n := range topo {
			names = append(names, n.Task.Name)
		}
		return strings.Join(names, " ")
	}
	d := NewDag("memo")
	a := d.MustAddTask(MustSimple("a", 0, 1))
	b := d.MustAddTask(MustSimple("b", 0, 2))
	if got := order(d); got != "a b" {
		t.Fatalf("TopoOrder = %q, want \"a b\"", got)
	}
	if got := d.CriticalPath(); got != 2 {
		t.Fatalf("CriticalPath = %v, want 2", got)
	}
	d.MustAddEdge(b, a)
	if got := order(d); got != "b a" {
		t.Errorf("after b>a: TopoOrder = %q, want \"b a\"", got)
	}
	if got := d.CriticalPath(); got != 3 {
		t.Errorf("after b>a: CriticalPath = %v, want 3", got)
	}
	c := d.MustAddTask(MustSimple("c", 0, 4))
	if got := order(d); got != "b a c" {
		t.Errorf("after AddTask: TopoOrder = %q, want \"b a c\"", got)
	}
	if _, err := d.Decompose(); err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	d.MustAddEdge(a, c)
	d.MustAddEdge(c, b) // b > a > c > b
	if _, err := d.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Errorf("after closing a cycle: TopoOrder = %v, want ErrCycle", err)
	}
	if err := d.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("after closing a cycle: Validate = %v, want ErrCycle", err)
	}
	if _, err := d.Decompose(); !errors.Is(err, ErrCycle) {
		t.Errorf("after closing a cycle: Decompose = %v, want ErrCycle", err)
	}
	if got := d.CriticalPath(); got != 0 {
		t.Errorf("after closing a cycle: CriticalPath = %v, want 0", got)
	}
}

// diamond builds a@0:1 -> {b@1:2, c@2:4} -> d@0:1.
func diamond(t *testing.T) *Dag {
	t.Helper()
	return MustParseDag("a@0:1 b@1:2 c@2:4 d@0:1 ; a>b a>c b>d c>d")
}

func TestDagPathsAndShape(t *testing.T) {
	d := diamond(t)
	if got := d.CriticalPath(); got != 6 {
		t.Errorf("CriticalPath = %v, want 6", got)
	}
	if got := d.PredictedCriticalPath(); got != 6 {
		t.Errorf("PredictedCriticalPath = %v, want 6", got)
	}
	if got := d.TotalWork(); got != 8 {
		t.Errorf("TotalWork = %v, want 8", got)
	}
	if got := d.Depth(); got != 3 {
		t.Errorf("Depth = %v, want 3", got)
	}
	if got := d.Width(); got != 2 {
		t.Errorf("Width = %v, want 2", got)
	}
	if got := len(d.Sources()); got != 1 {
		t.Errorf("Sources = %d, want 1", got)
	}
	if got := len(d.Sinks()); got != 1 {
		t.Errorf("Sinks = %d, want 1", got)
	}
	topo, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range topo {
		names = append(names, n.Task.Name)
	}
	if got := strings.Join(names, " "); got != "a b c d" {
		t.Errorf("TopoOrder = %q, want \"a b c d\"", got)
	}
}

func TestDagRootAccounting(t *testing.T) {
	d := diamond(t)
	root := d.Root()
	if root != d.Root() {
		t.Error("Root not memoized")
	}
	if got := root.CountSimple(); got != 4 {
		t.Errorf("root.CountSimple = %d, want 4", got)
	}
	if got := root.TotalWork(); got != 8 {
		t.Errorf("root.TotalWork = %v, want 8", got)
	}
	if !root.RealDeadline.IsNever() || !root.Finish.IsNever() {
		t.Error("root runtime attributes not pristine")
	}
	// The root shares the vertex tasks, so runtime walks see them.
	seen := 0
	root.Walk(func(x *Task) {
		if x.IsSimple() {
			seen++
		}
	})
	if seen != 4 {
		t.Errorf("root.Walk saw %d leaves, want 4", seen)
	}
}

func TestDagClone(t *testing.T) {
	d := diamond(t)
	d.Nodes()[0].Task.Arrival = 42
	c := d.Clone()
	if c.Len() != d.Len() || c.EdgeCount() != d.EdgeCount() {
		t.Fatalf("clone shape %d/%d, want %d/%d", c.Len(), c.EdgeCount(), d.Len(), d.EdgeCount())
	}
	if got := c.Nodes()[0].Task.Arrival; got != 0 {
		t.Errorf("clone arrival = %v, want pristine 0", got)
	}
	c.Nodes()[1].Task.Exec = 99
	if d.Nodes()[1].Task.Exec == 99 {
		t.Error("clone shares task state with original")
	}
	if d.String() == c.String() {
		t.Error("exec edit not visible in clone string")
	}
}

func TestFromTreeMatchesTree(t *testing.T) {
	for _, src := range []string{
		"a@1:2",
		"[a@0:1 b@1:2 c@2:3]",
		"[a@0:1 || b@1:2 || c@2:3]",
		"[init@0:1 [g1@1:2||g2@2:3||g3@3:1] done@4:2.5]",
		"[x@0:1 [y@1:2 || [z@2:3 w@3:4]] v@4:5]",
	} {
		tree := MustParse(src)
		d, err := FromTree(tree)
		if err != nil {
			t.Fatalf("FromTree(%q): %v", src, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("FromTree(%q) invalid: %v", src, err)
		}
		if got, want := d.Len(), tree.CountSimple(); got != want {
			t.Errorf("%q: %d vertices, want %d", src, got, want)
		}
		if got, want := d.CriticalPath(), tree.CriticalPath(); got != want {
			t.Errorf("%q: CriticalPath %v, want %v", src, got, want)
		}
		if got, want := d.PredictedCriticalPath(), tree.PredictedCriticalPath(); got != want {
			t.Errorf("%q: PredictedCriticalPath %v, want %v", src, got, want)
		}
		if got, want := d.TotalWork(), tree.TotalWork(); got != want {
			t.Errorf("%q: TotalWork %v, want %v", src, got, want)
		}
	}
}

func TestFromTreeEdges(t *testing.T) {
	// [a [b || c] d]: a feeds both branches, both branches feed d.
	d, err := FromTree(MustParse("[a [b || c] d]"))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "a@0:1 b@0:1 c@0:1 d@0:1 ; a>b a>c b>d c>d" {
		t.Errorf("FromTree edges = %q", got)
	}
}

func TestParseDagErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"a b ; a>x",
		"a a",
		"a b ; a>",
		"a b ; >b",
		"a b ; a b",
		"a b ; a>b b>a",
		"a b ; a>b ]",
		"[a b]",
	} {
		if _, err := ParseDag(bad); err == nil {
			t.Errorf("ParseDag(%q) accepted, want error", bad)
		}
	}
}

func TestParseDagRoundTrip(t *testing.T) {
	for _, src := range []string{
		"a@0:1",
		"a@0:1 b@1:2 c@2:3",
		"a@0:1 b@1:2 c@2:4 d@0:1 ; a>b a>c b>d c>d",
		"a@0:1 b@1:2/3 ; a>b",
	} {
		d := MustParseDag(src)
		if got := d.String(); got != src {
			t.Errorf("String = %q, want %q", got, src)
		}
		back := MustParseDag(d.String())
		if back.String() != d.String() {
			t.Errorf("round trip unstable: %q -> %q", d.String(), back.String())
		}
	}
}

func shapeOf(s *Structure) string {
	switch s.Kind {
	case StructLeaf:
		return s.Node.Task.Name
	case StructCluster:
		var names []string
		for _, m := range s.Members {
			names = append(names, m.Task.Name)
		}
		return "{" + strings.Join(names, " ") + "}"
	default:
		var parts []string
		for _, c := range s.Children {
			parts = append(parts, shapeOf(c))
		}
		sep := " "
		if s.Kind == StructParallel {
			sep = " || "
		}
		return "[" + strings.Join(parts, sep) + "]"
	}
}

func TestDecomposeShapes(t *testing.T) {
	cases := []struct {
		dag, shape string
	}{
		{"a", "a"},
		{"a b c ; a>b b>c", "[a b c]"},
		{"a b c", "[a || b || c]"},
		{"a b c d ; a>b a>c b>d c>d", "[a [b || c] d]"},
		// Two disconnected chains: parallel of serials.
		{"a b c d ; a>b c>d", "[[a b] || [c d]]"},
		// N-graph: connected, no complete-bipartite cut -> cluster.
		{"a b c d ; a>c b>c b>d", "{a b c d}"},
		// Fork-join with a cross edge skipping the join stage.
		{"s a b j t ; s>a s>b a>j b>j a>t j>t", "[s {a b j t}]"},
		// Serial chain of a cluster between clean stages.
		{"x a b c d y ; x>a x>b a>c b>c b>d c>y d>y", "[x {a b c d} y]"},
	}
	for _, tc := range cases {
		d := MustParseDag(tc.dag)
		st, err := d.Decompose()
		if err != nil {
			t.Fatalf("Decompose(%q): %v", tc.dag, err)
		}
		if got := shapeOf(st); got != tc.shape {
			t.Errorf("Decompose(%q) = %s, want %s", tc.dag, got, tc.shape)
		}
		if got, want := st.CriticalPath(), d.CriticalPath(); got != want {
			t.Errorf("Decompose(%q).CriticalPath = %v, want %v", tc.dag, got, want)
		}
		if got, want := st.PredictedCriticalPath(), d.PredictedCriticalPath(); got != want {
			t.Errorf("Decompose(%q).PredictedCriticalPath = %v, want %v", tc.dag, got, want)
		}
	}
}

func TestDecomposeRecoversTree(t *testing.T) {
	// Canonical trees decompose back to their exact shape.
	for _, src := range []string{
		"[a b c]",
		"[a || b || c]",
		"[a [b || c] d]",
		"[x [y || [z w]] v]",
		"[[a b] || c || [d [e || f]]]",
	} {
		tree := MustParse(src)
		d, err := FromTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		want := strings.NewReplacer("@0:1", "").Replace(tree.String())
		if got := shapeOf(st); got != want {
			t.Errorf("decompose(FromTree(%q)) = %s, want %s", src, got, want)
		}
	}
}

func TestClusterGroups(t *testing.T) {
	// s>a s>b a>j b>j a>t j>t: a and b share preds {s} but differ in
	// succs, so each is its own group.
	d := MustParseDag("s a b j t ; s>a s>b a>j b>j a>t j>t")
	st, err := d.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StructSerial || st.Children[1].Kind != StructCluster {
		t.Fatalf("unexpected shape %s", shapeOf(st))
	}
	cl := st.Children[1]
	var got []string
	for _, g := range cl.ClusterGroups() {
		var names []string
		for _, m := range g {
			names = append(names, m.Task.Name)
		}
		got = append(got, strings.Join(names, " "))
	}
	if want := []string{"a", "b", "j", "t"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ClusterGroups = %v, want %v", got, want)
	}

	// True sibling fan-out inside a cluster: b and c share preds {a} and
	// succs {d, e}; d and e likewise pair up; the a>f skip edge breaks
	// series-parallelism.
	d = MustParseDag("a b c d e f ; a>b a>c b>d b>e c>d c>e d>f e>f a>f")
	st, err = d.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StructCluster {
		t.Fatalf("unexpected shape %s", shapeOf(st))
	}
	groups := st.ClusterGroups()
	var sizes []int
	for _, g := range groups {
		sizes = append(sizes, len(g))
	}
	if len(groups) != 4 || sizes[1] != 2 || sizes[2] != 2 {
		t.Fatalf("groups sizes = %v, want [1 2 2 1]", sizes)
	}
	if groups[1][0].Task.Name != "b" || groups[1][1].Task.Name != "c" {
		t.Errorf("sibling group = %v", groups[1])
	}
}

func TestMemberDown(t *testing.T) {
	d := MustParseDag("a@0:1 b@0:2 c@0:4 d@0:8 ; a>c b>c b>d")
	st, err := d.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StructCluster {
		t.Fatalf("unexpected shape %s", shapeOf(st))
	}
	down := st.MemberDown()
	want := map[string]simtime.Duration{"a": 5, "b": 10, "c": 4, "d": 8}
	for _, m := range st.Members {
		if got := down[m.ID()]; got != want[m.Task.Name] {
			t.Errorf("down[%s] = %v, want %v", m.Task.Name, got, want[m.Task.Name])
		}
	}
}
