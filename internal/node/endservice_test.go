package node

import (
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
)

// TestEndService checks external completion: an item with an unbounded
// execution time stays in service until its owner ends it, then completes
// exactly as a timed service would and the node moves on.
func TestEndService(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var done []string
	var doneAt simtime.Time
	hooks := onDone(func(it *Item, at simtime.Time) { done, doneAt = append(done, it.Task.Name), at })
	ext := mkItem(t, "ext", 10, simtime.Forever)
	next := mkItem(t, "next", 20, 1)
	ext.Hooks, next.Hooks = hooks, hooks
	for _, it := range []*Item{ext, next} {
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(4)
	if ext.State() != StateServing || len(done) != 0 {
		t.Fatalf("before EndService: state %v, done %v", ext.State(), done)
	}
	if n.EndService(next) {
		t.Error("EndService ended a queued item")
	}
	if !n.EndService(ext) {
		t.Fatal("EndService of the in-service item reported false")
	}
	if ext.State() != StateDone || doneAt != 4 || ext.Task.Finish != 4 {
		t.Errorf("after EndService: state %v, done at %v, finish %v; want done at 4", ext.State(), doneAt, ext.Task.Finish)
	}
	if n.EndService(ext) {
		t.Error("EndService completed an item twice")
	}
	eng.Run()
	if len(done) != 2 || done[1] != "next" || eng.Now() != 5 {
		t.Errorf("done %v at %v, want [ext next] ending at 5", done, eng.Now())
	}
	if n.Served() != 2 || n.BusyTime() != 5 {
		t.Errorf("served %d busy %v, want 2 and 5", n.Served(), n.BusyTime())
	}
}

// TestEndServiceStale checks that ending a removed, foreign or recycled
// item is a no-op: an owner whose work returns after an abort must not
// complete anything.
func TestEndServiceStale(t *testing.T) {
	eng := des.New()
	n, other := New(0, eng), New(1, eng)
	it := n.AcquireItem(mkItem(t, "x", 10, simtime.Forever).Task)
	it.Hooks = onDone(func(*Item, simtime.Time) { t.Error("ItemDone fired for a stale item") })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	if other.EndService(it) {
		t.Error("EndService at a foreign node reported true")
	}
	if !n.Remove(it) {
		t.Fatal("Remove of the in-service item failed")
	}
	if n.EndService(it) {
		t.Error("EndService after Remove reported true")
	}
	n.RecycleItem(it)
	if n.EndService(it) || n.EndService(nil) {
		t.Error("EndService of a recycled or nil item reported true")
	}
	if n.Served() != 0 || n.AbortedCount() != 1 || n.Busy() {
		t.Errorf("served %d aborted %d busy %v, want 0, 1, false", n.Served(), n.AbortedCount(), n.Busy())
	}
}
