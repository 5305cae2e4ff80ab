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

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}
