package task

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestTaskSize pins the Task layout: 104 bytes on 64-bit hosts, so a
// slab chunk of slabChunk tasks fills the 32 KiB size class with under
// one task of slack. A new field belongs in the padding after the flags
// or needs the chunk sizing revisited.
func TestTaskSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Task{}); got != 104 {
		t.Errorf("Task is %d bytes, want 104", got)
	}
}

// TestSlabAllocs checks that a slab allocates once per chunk of leaves
// and a nil slab once per leaf.
func TestSlabAllocs(t *testing.T) {
	var slab *Slab
	build := func() {
		for i := 0; i < slabChunk; i++ {
			if _, err := slab.Simple("", i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(5, build); got != float64(slabChunk) {
		t.Errorf("nil slab: %v allocs per %d leaves, want %d", got, slabChunk, slabChunk)
	}
	slab = new(Slab)
	if got := testing.AllocsPerRun(5, build); got != 1 {
		t.Errorf("slab: %v allocs per %d leaves, want 1", got, slabChunk)
	}
}

// TestSlabClone checks that cloning through a slab matches Task.Clone and
// takes only leaves from the chunk.
func TestSlabClone(t *testing.T) {
	orig := fig1(t)
	orig.Walk(func(n *Task) { n.Arrival, n.Finish, n.Aborted = 3, 4, true })
	slab := new(Slab)
	got := slab.Clone(orig)
	if want := orig.Clone(); got.String() != want.String() {
		t.Fatalf("slab clone %s, heap clone %s", got, want)
	}
	if drawn := slabChunk - len(slab.free); drawn != orig.CountSimple() {
		t.Errorf("slab handed out %d tasks for %d leaves", drawn, orig.CountSimple())
	}
	got.Walk(func(n *Task) {
		if n.Arrival != 0 || !n.Finish.IsNever() || n.Aborted {
			t.Errorf("%s: runtime attributes not reset", n.Name)
		}
	})
}

// TestReclaimPoison checks what Reclaim does to a tree: every task drawn
// from a slab is poisoned (Kind 0, Node -1) and drawn again before the
// chunk, composites keep their Children arrays, heap-built tasks are left
// alone, and a second reclaim panics.
func TestReclaimPoison(t *testing.T) {
	slab := new(Slab)
	leaf := func(node int) *Task {
		l, err := slab.Simple("", node, 1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	heap := MustSimple("heap", 3, 2)
	par := slab.Composite("p", KindParallel, 3)
	par.Children[0], par.Children[1], par.Children[2] = leaf(0), leaf(1), heap
	root := slab.Composite("s", KindSerial, 2)
	root.Children[0], root.Children[1] = leaf(2), par
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	drawn := slabChunk - len(slab.free)
	var all []*Task
	root.Walk(func(n *Task) { all = append(all, n) })
	arr := &par.Children[:1][0]

	slab.Reclaim(root)
	for _, n := range all {
		switch {
		case n == heap:
			if n.Kind != KindSimple || n.Node != 3 || n.Name != "heap" {
				t.Errorf("heap-built task changed: %+v", *n)
			}
		case n.Kind != 0 || n.Node != -1 || n.Name != "" || len(n.Children) != 0:
			t.Errorf("reclaimed task not poisoned: %+v", *n)
		}
	}
	if len(slab.leaves) != 3 || len(slab.comps) != 2 {
		t.Fatalf("slab took back %d leaves and %d composites, want 3 and 2", len(slab.leaves), len(slab.comps))
	}
	for _, c := range slab.comps {
		for _, ch := range c.Children[:cap(c.Children)] {
			if ch != nil {
				t.Errorf("reclaimed composite still points at a child")
			}
		}
	}
	mustPanic(t, "task reclaimed twice", func() { slab.Reclaim(root) })
	mustPanic(t, "task reclaimed twice", func() { slab.Reclaim(all[1]) })

	// Draws reuse the reclaimed tasks, pristine, before the chunk.
	for i := 0; i < 3; i++ {
		l := leaf(i)
		if l.Kind != KindSimple || l.Node != i || !l.Finish.IsNever() {
			t.Errorf("reused leaf not pristine: %+v", *l)
		}
	}
	slab.Composite("", KindSerial, 2) // the root, reclaimed last
	p := slab.Composite("again", KindParallel, 3)
	if &p.Children[0] != arr || p.Name != "again" || p.Children[0] != nil {
		t.Errorf("reused composite did not keep its cleared Children array")
	}
	if now := slabChunk - len(slab.free); now != drawn {
		t.Errorf("chunk handed out %d more tasks; reclaimed ones should come first", now-drawn)
	}

	// A nil slab reclaims nothing, and no slab takes a heap-built task.
	kept := leaf(4)
	(*Slab)(nil).Reclaim(kept)
	slab.Reclaim(heap)
	if kept.Kind != KindSimple || kept.Node != 4 {
		t.Errorf("nil slab reclaimed a task")
	}
	if heap.Kind != KindSimple || heap.Node != 3 {
		t.Errorf("heap task reclaimed")
	}
}

// TestSlabReuseAllocs checks that a build → reclaim loop through a slab
// allocates nothing once the slab holds the tree's tasks.
func TestSlabReuseAllocs(t *testing.T) {
	slab := new(Slab)
	build := func() {
		root := slab.Composite("", KindSerial, 3)
		for i := range root.Children {
			g := slab.Composite("", KindParallel, 2)
			g.Children[0], _ = slab.Simple("", 0, 1)
			g.Children[1], _ = slab.Simple("", 1, 1)
			root.Children[i] = g
		}
		slab.Reclaim(root)
	}
	if got := testing.AllocsPerRun(10, build); got != 0 {
		t.Errorf("build and reclaim: %v allocs per tree, want 0", got)
	}
}

// copyDag builds the DAG src describes (ParseDag syntax) into d, a DAG
// drawn from slab, with its vertex tasks drawn from slab too.
func copyDag(d *Dag, slab *Slab, src string) *Dag {
	p := MustParseDag(src)
	for _, n := range p.Nodes() {
		d.MustAddTask(slab.Clone(n.Task))
	}
	for _, n := range p.Nodes() {
		for _, s := range n.Succs() {
			d.MustAddEdge(d.Nodes()[n.ID()], d.Nodes()[s.ID()])
		}
	}
	return d
}

// dagQueries runs every derived query of a DAG and renders the results:
// the decomposition with each cluster's MemberDown and ClusterGroups, the
// accounting root, the critical paths and the level shape.
func dagQueries(t *testing.T, d *Dag) string {
	t.Helper()
	st, err := d.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var walk func(s *Structure)
	walk = func(s *Structure) {
		if s.Kind == StructCluster {
			fmt.Fprintf(&b, " down=%v groups=", s.MemberDown())
			for _, g := range s.ClusterGroups() {
				for _, m := range g {
					b.WriteString(m.Task.Name)
				}
				b.WriteByte('|')
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(st)
	fmt.Fprintf(&b, " %s root=%s cp=%v pcp=%v depth=%d width=%d", shapeOf(st), d.Root(),
		d.CriticalPath(), d.PredictedCriticalPath(), d.Depth(), d.Width())
	return b.String()
}

// TestReclaimDag checks what ReclaimDag does: the vertex tasks drawn from
// a slab go back to its leaf list poisoned, heap-built ones are left
// alone, the DAG record is emptied, its root poisoned, and drawn again
// before a new one, a second reclaim panics, and a heap-built DAG is
// never taken. A reused record answers every query as a fresh DAG would,
// whatever shape it held before.
func TestReclaimDag(t *testing.T) {
	const nShape = "a@0:1 b@0:2 c@0:4 d@0:8 ; a>c b>c b>d"
	const forkJoin = "s@1:1 x@2:2 y@3:3 z@4:1 j@5:2 k@0:9 ; s>x s>y s>z x>j y>j z>j s>j j>k"
	slab := new(Slab)
	d := copyDag(slab.Dag("n"), slab, nShape)
	heap := MustSimple("heap", 3, 2)
	hv := d.MustAddTask(heap)
	d.MustAddEdge(d.Nodes()[0], hv)
	dagQueries(t, d)
	root := d.Root()
	var verts []*Task
	for _, n := range d.Nodes() {
		verts = append(verts, n.Task)
	}

	slab.ReclaimDag(d)
	if d.Len() != 0 || d.EdgeCount() != 0 || d.Name != "" {
		t.Errorf("reclaimed DAG not emptied: %d vertices, %d edges, name %q", d.Len(), d.EdgeCount(), d.Name)
	}
	if root.Kind != 0 || root.Node != -1 || len(root.Children) != 0 {
		t.Errorf("reclaimed root not poisoned: %+v", *root)
	}
	for _, v := range verts {
		if v == heap {
			if v.Kind != KindSimple || v.Node != 3 {
				t.Errorf("heap-built vertex changed: %+v", *v)
			}
		} else if v.Kind != 0 || v.Node != -1 {
			t.Errorf("reclaimed vertex not poisoned: %+v", *v)
		}
	}
	if len(slab.leaves) != 4 || len(slab.dags) != 1 {
		t.Fatalf("slab took back %d leaves and %d DAGs, want 4 and 1", len(slab.leaves), len(slab.dags))
	}
	mustPanic(t, "DAG reclaimed twice", func() { slab.ReclaimDag(d) })

	// The record comes back first and answers as a fresh DAG would.
	again := slab.Dag("fj")
	if again != d {
		t.Fatalf("slab drew a new DAG before the reclaimed one")
	}
	copyDag(again, slab, forkJoin)
	if got, want := dagQueries(t, again), dagQueries(t, copyDag(NewDag("fj"), nil, forkJoin)); got != want {
		t.Errorf("reused DAG:\n%s\nfresh DAG:\n%s", got, want)
	}
	slab.ReclaimDag(again)
	copyDag(slab.Dag("n"), slab, nShape)
	if got, want := dagQueries(t, d), dagQueries(t, copyDag(NewDag("n"), nil, nShape)); got != want {
		t.Errorf("reused DAG:\n%s\nfresh DAG:\n%s", got, want)
	}

	// A nil slab reclaims nothing, and no slab takes a heap-built DAG.
	(*Slab)(nil).ReclaimDag(d)
	if d.Len() != 4 {
		t.Errorf("nil slab reclaimed a DAG")
	}
	h := copyDag(NewDag("h"), nil, nShape)
	slab.ReclaimDag(h)
	if h.Len() != 4 || len(slab.dags) != 0 {
		t.Errorf("slab took a heap-built DAG")
	}
}

// TestReclaimCondDag checks that a conditional DAG goes back to its slab
// with its DAG, that the record comes back first with no branch points,
// that reclaiming it twice panics, and that a draw, branch and reclaim
// loop allocates nothing once the slab holds the record.
func TestReclaimCondDag(t *testing.T) {
	slab := new(Slab)
	build := func() *CondDag {
		cd := slab.CondDag("c")
		d := cd.Dag()
		var vs [3]*DagNode
		for i := range vs {
			l, _ := slab.Simple("", i, 1)
			vs[i] = d.MustAddTask(l)
		}
		d.MustAddEdge(vs[0], vs[1])
		d.MustAddEdge(vs[0], vs[2])
		if err := cd.SetBranch(vs[0], []float64{0.25, 0.75}); err != nil {
			t.Fatal(err)
		}
		return cd
	}
	cd := build()
	d := cd.Dag()
	slab.ReclaimCondDag(cd)
	if len(slab.conds) != 1 || len(slab.dags) != 1 || len(slab.leaves) != 3 {
		t.Fatalf("slab holds %d conditional DAGs, %d DAGs and %d leaves, want 1, 1 and 3",
			len(slab.conds), len(slab.dags), len(slab.leaves))
	}
	mustPanic(t, "conditional DAG reclaimed twice", func() { slab.ReclaimCondDag(cd) })

	again := slab.CondDag("c")
	if again != cd || again.Dag() != d || again.CondCount() != 0 {
		t.Fatalf("redrawn conditional DAG: same record %t, same DAG %t, %d branch points",
			again == cd, again.Dag() == d, again.CondCount())
	}
	slab.ReclaimCondDag(again)
	if raceEnabled {
		return // allocation counts under the race detector include its sync.Pool drops
	}
	if got := testing.AllocsPerRun(10, func() {
		cd := build()
		if p, ok := cd.Branch(cd.Dag().Nodes()[0]); !ok || p[1] != 0.75 {
			t.Fatalf("branch probabilities %v, %t", p, ok)
		}
		slab.ReclaimCondDag(cd)
	}); got != 0 {
		t.Errorf("draw and reclaim: %v allocs per conditional DAG, want 0", got)
	}
}

// TestDagReuseAllocs checks that a build → query → reclaim loop through a
// slab allocates nothing once the slab holds the DAG: the vertex records,
// adjacency lists, topological order, root, decomposition, MemberDown
// and ClusterGroups all come from the reused record.
func TestDagReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its sync.Pool drops")
	}
	slab := new(Slab)
	build := func() {
		d := slab.Dag("")
		var vs [6]*DagNode
		for i := range vs {
			l, _ := slab.Simple("", i, 1)
			vs[i] = d.MustAddTask(l)
		}
		// A source fans out to an N-shaped cluster that joins in a sink.
		for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {0, 5}} {
			d.MustAddEdge(vs[e[0]], vs[e[1]])
		}
		st, err := d.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		clusters := 0
		var walk func(s *Structure)
		walk = func(s *Structure) {
			if s.Kind == StructCluster {
				clusters++
				s.MemberDown()
				s.ClusterGroups()
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(st)
		if clusters == 0 {
			t.Fatal("the DAG decomposed without a cluster")
		}
		d.Root()
		d.Depth()
		d.Width()
		d.CriticalPath()
		slab.ReclaimDag(d)
	}
	if got := testing.AllocsPerRun(10, build); got != 0 {
		t.Errorf("build and reclaim: %v allocs per DAG, want 0", got)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}
