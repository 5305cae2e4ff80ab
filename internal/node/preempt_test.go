package node

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
)

func TestPreemptionSuspendsAndResumes(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPreemption())
	var finishes = map[string]simtime.Time{}
	record := func(i *Item, at simtime.Time) { finishes[i.Task.Name] = at }

	long := mkItem(t, "long", 100, 10)
	long.Hooks = onDone(record)
	if err := n.Submit(long); err != nil {
		t.Fatal(err)
	}
	// At t=4, an urgent item arrives and must preempt.
	if _, err := eng.At(4, func() {
		urgent := mkItem(t, "urgent", 5, 2)
		urgent.Hooks = onDone(record)
		if err := n.Submit(urgent); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// urgent runs 4..6; long resumes with 6 residual units, 6..12.
	if finishes["urgent"] != 6 {
		t.Errorf("urgent finished at %v, want 6", finishes["urgent"])
	}
	if finishes["long"] != 12 {
		t.Errorf("long finished at %v, want 12 (work conserved)", finishes["long"])
	}
	// Work conservation: total busy time is 12.
	if bt := n.BusyTime(); math.Abs(float64(bt)-12) > 1e-9 {
		t.Errorf("busy time = %v, want 12", bt)
	}
}

func TestNoPreemptionByDefault(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var finishes = map[string]simtime.Time{}
	record := func(i *Item, at simtime.Time) { finishes[i.Task.Name] = at }
	long := mkItem(t, "long", 100, 10)
	long.Hooks = onDone(record)
	if err := n.Submit(long); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(4, func() {
		urgent := mkItem(t, "urgent", 5, 2)
		urgent.Hooks = onDone(record)
		if err := n.Submit(urgent); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if finishes["long"] != 10 || finishes["urgent"] != 12 {
		t.Errorf("finishes = %v, want long 10, urgent 12 (non-preemptive)", finishes)
	}
}

func TestPreemptionLowerPriorityDoesNotPreempt(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPreemption())
	var finishes = map[string]simtime.Time{}
	record := func(i *Item, at simtime.Time) { finishes[i.Task.Name] = at }
	first := mkItem(t, "first", 5, 10)
	first.Hooks = onDone(record)
	if err := n.Submit(first); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(4, func() {
		later := mkItem(t, "later", 50, 1)
		later.Hooks = onDone(record)
		if err := n.Submit(later); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if finishes["first"] != 10 {
		t.Errorf("first finished at %v, want 10 (no preemption by later deadline)", finishes["first"])
	}
}

func TestPreemptionChain(t *testing.T) {
	// Successively more urgent arrivals, each preempting the previous.
	eng := des.New()
	n := New(0, eng, WithPreemption())
	var order []string
	record := func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) }
	a := mkItem(t, "a", 100, 10)
	a.Hooks = onDone(record)
	if err := n.Submit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(2, func() {
		b := mkItem(t, "b", 50, 10)
		b.Hooks = onDone(record)
		if err := n.Submit(b); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(5, func() {
		c := mkItem(t, "c", 10, 2)
		c.Hooks = onDone(record)
		if err := n.Submit(c); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := []string{"c", "b", "a"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (EDF with preemption)", order, want)
		}
	}
	// Total work: 10 + 10 + 2 = 22.
	if bt := n.BusyTime(); math.Abs(float64(bt)-22) > 1e-9 {
		t.Errorf("busy = %v, want 22", bt)
	}
}

func TestPreemptedItemCanBeRemoved(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPreemption())
	victim := mkItem(t, "victim", 100, 10)
	if err := n.Submit(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(3, func() {
		urgent := mkItem(t, "urgent", 5, 4)
		if err := n.Submit(urgent); err != nil {
			t.Error(err)
		}
		// victim is now queued (preempted); remove it.
		if !n.Remove(victim) {
			t.Error("failed to remove preempted item")
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if victim.State() != StateAborted {
		t.Errorf("victim state = %v, want aborted", victim.State())
	}
	if victim.Task.Finished() {
		t.Error("removed preempted item should not finish")
	}
	// Busy: 3 (victim's partial) + 4 (urgent) = 7.
	if bt := n.BusyTime(); math.Abs(float64(bt)-7) > 1e-9 {
		t.Errorf("busy = %v, want 7", bt)
	}
}

func TestPreemptionBoostBand(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPreemption())
	var order []string
	record := func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) }
	local := mkItem(t, "local", 5, 10)
	local.Hooks = onDone(record)
	if err := n.Submit(local); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(1, func() {
		global := mkItem(t, "global", 100, 1)
		global.Task.PriorityBoost = true
		global.Hooks = onDone(record)
		if err := n.Submit(global); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(order) != 2 || order[0] != "global" {
		t.Errorf("order = %v, want the boosted global first", order)
	}
}
