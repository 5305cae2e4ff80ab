package task

import (
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
// leaves composites and Children slices out of the slab.
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
