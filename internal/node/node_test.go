package node

import (
	"errors"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
	"repro/internal/task"
)

// mkItem builds an item with the given virtual deadline and execution time.
func mkItem(t *testing.T, name string, vdl simtime.Time, ex simtime.Duration) *Item {
	t.Helper()
	tk := task.MustSimple(name, 0, ex)
	tk.VirtualDeadline = vdl
	tk.RealDeadline = vdl
	return NewItem(tk)
}

func TestServeSingleItem(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var doneAt simtime.Time
	it := mkItem(t, "a", 10, 2)
	it.Hooks = onDone(func(_ *Item, at simtime.Time) { doneAt = at })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt != 2 {
		t.Errorf("done at %v, want 2", doneAt)
	}
	if it.State() != StateDone {
		t.Errorf("state = %v, want done", it.State())
	}
	if it.Task.Finish != 2 {
		t.Errorf("finish = %v, want 2", it.Task.Finish)
	}
	if n.Served() != 1 {
		t.Errorf("served = %d, want 1", n.Served())
	}
}

func TestEDFOrder(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var order []string
	submit := func(name string, vdl simtime.Time) {
		it := mkItem(t, name, vdl, 1)
		it.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	// First item starts service immediately (non-preemptive); the rest
	// queue and are served in deadline order.
	submit("first", 100)
	submit("late", 50)
	submit("early", 5)
	submit("mid", 20)
	eng.Run()
	want := []string{"first", "early", "mid", "late"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEDFTieBreakFIFO(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var order []string
	for _, name := range []string{"hold", "a", "b", "c"} {
		it := mkItem(t, name, 7, 1)
		it.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	want := []string{"hold", "a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityBoostBeatsEarlierDeadline(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var order []string
	hold := mkItem(t, "hold", 1, 1)
	hold.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
	local := mkItem(t, "local", 2, 1) // very urgent local
	local.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
	global := mkItem(t, "global", 50, 1) // far deadline but boosted
	global.Task.PriorityBoost = true
	global.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
	for _, it := range []*Item{hold, local, global} {
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	want := []string{"hold", "global", "local"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (GF band first)", order, want)
		}
	}
}

func TestFIFOPolicy(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPolicy(FIFO{}))
	var order []string
	for _, tc := range []struct {
		name string
		vdl  simtime.Time
	}{{"hold", 9}, {"a", 100}, {"b", 1}} {
		it := mkItem(t, tc.name, tc.vdl, 1)
		it.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	want := []string{"hold", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	if err := n.Submit(nil); !errors.Is(err, ErrNotSimple) {
		t.Errorf("nil item err = %v", err)
	}
	comp := task.MustSerial("s", task.MustSimple("a", 0, 1), task.MustSimple("b", 0, 1))
	if err := n.Submit(&Item{Task: comp}); !errors.Is(err, ErrNotSimple) {
		t.Errorf("composite err = %v", err)
	}
	it := mkItem(t, "a", 5, 1)
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(it); !errors.Is(err, ErrResubmitted) {
		t.Errorf("double submit err = %v", err)
	}
}

func TestRemoveQueuedItem(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	blocker := mkItem(t, "blocker", 1, 5)
	victim := mkItem(t, "victim", 2, 1)
	served := false
	victim.Hooks = onDone(func(*Item, simtime.Time) { served = true })
	if err := n.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(victim); err != nil {
		t.Fatal(err)
	}
	if !n.Remove(victim) {
		t.Fatal("Remove(queued) = false")
	}
	if victim.State() != StateAborted {
		t.Errorf("state = %v, want aborted", victim.State())
	}
	eng.Run()
	if served {
		t.Error("removed item was served")
	}
	if n.AbortedCount() != 1 {
		t.Errorf("aborted = %d, want 1", n.AbortedCount())
	}
}

func TestRemoveServingItemFreesServer(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	long := mkItem(t, "long", 1, 100)
	next := mkItem(t, "next", 2, 1)
	var nextDone simtime.Time
	next.Hooks = onDone(func(_ *Item, at simtime.Time) { nextDone = at })
	if err := n.Submit(long); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(next); err != nil {
		t.Fatal(err)
	}
	// Kill the in-service item at t=10.
	if _, err := eng.At(10, func() {
		if !n.Remove(long) {
			t.Error("Remove(serving) = false")
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if long.State() != StateAborted {
		t.Errorf("long state = %v, want aborted", long.State())
	}
	if long.Task.Finished() {
		t.Error("killed item should not record a finish time")
	}
	if nextDone != 11 {
		t.Errorf("next done at %v, want 11 (kill at 10 + 1 service)", nextDone)
	}
	// Partial service of the killed item counts toward busy time.
	if bt := n.BusyTime(); math.Abs(float64(bt)-11) > 1e-9 {
		t.Errorf("busy time = %v, want 11", bt)
	}
}

func TestRemoveForeignOrFinishedItem(t *testing.T) {
	eng := des.New()
	n1 := New(0, eng)
	n2 := New(1, eng)
	it := mkItem(t, "a", 5, 1)
	if err := n1.Submit(it); err != nil {
		t.Fatal(err)
	}
	if n2.Remove(it) {
		t.Error("foreign node removed an item it does not own")
	}
	eng.Run()
	if n1.Remove(it) {
		t.Error("removed an already-finished item")
	}
	if n1.Remove(nil) {
		t.Error("Remove(nil) = true")
	}
}

func TestLocalAbortDiscardsExpired(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithLocalAbort())
	blocker := mkItem(t, "blocker", 1, 10)
	expired := mkItem(t, "expired", 5, 1) // will expire during blocker's service
	fresh := mkItem(t, "fresh", 50, 1)
	var aborted []string
	var served []string
	for _, it := range []*Item{blocker, expired, fresh} {
		it.Hooks = funcHooks{
			done:       func(i *Item, _ simtime.Time) { served = append(served, i.Task.Name) },
			localAbort: func(i *Item, _ simtime.Time) { aborted = append(aborted, i.Task.Name) },
		}
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(aborted) != 1 || aborted[0] != "expired" {
		t.Errorf("aborted = %v, want [expired]", aborted)
	}
	if len(served) != 2 || served[0] != "blocker" || served[1] != "fresh" {
		t.Errorf("served = %v, want [blocker fresh]", served)
	}
	if expired.State() != StateAborted {
		t.Errorf("expired state = %v", expired.State())
	}
}

func TestNoLocalAbortByDefault(t *testing.T) {
	eng := des.New()
	n := New(0, eng) // no-abortion overload policy (Table 1 baseline)
	blocker := mkItem(t, "blocker", 1, 10)
	late := mkItem(t, "late", 5, 1)
	var served []string
	for _, it := range []*Item{blocker, late} {
		it.Hooks = onDone(func(i *Item, _ simtime.Time) { served = append(served, i.Task.Name) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(served) != 2 {
		t.Errorf("served = %v; no-abortion nodes must finish tardy work", served)
	}
}

func TestLocalAbortResubmitAllowed(t *testing.T) {
	// After a local abort the owner may resubmit the same item with a
	// fresh deadline; the node must accept it.
	eng := des.New()
	n := New(0, eng, WithLocalAbort())
	blocker := mkItem(t, "blocker", 1, 10)
	victim := mkItem(t, "victim", 5, 1)
	victim.Task.RealDeadline = 100
	resubmitted := false
	done := false
	victim.Hooks = funcHooks{
		done: func(*Item, simtime.Time) { done = true },
		localAbort: func(i *Item, at simtime.Time) {
			if !resubmitted {
				resubmitted = true
				i.Task.VirtualDeadline = 60 // fresh virtual deadline
				if err := n.Submit(i); err != nil {
					t.Errorf("resubmit: %v", err)
				}
			}
		},
	}
	if err := n.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !resubmitted || !done {
		t.Errorf("resubmitted=%v done=%v, want both", resubmitted, done)
	}
}

func TestUtilization(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	for i := 0; i < 5; i++ {
		if err := n.Submit(mkItem(t, "t", 100, 2)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	// 10 units of work finish at t=10 -> utilization 1.
	if u := n.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", u)
	}
	eng.RunUntil(20)
	if u := n.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization after idle = %v, want 0.5", u)
	}
}

func TestUtilizationAtTimeZero(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	if u := n.Utilization(); u != 0 {
		t.Errorf("utilization at t=0 = %v, want 0", u)
	}
}

func TestBusyTimeIncludesInService(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	if err := n.Submit(mkItem(t, "a", 100, 10)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4)
	if bt := n.BusyTime(); math.Abs(float64(bt)-4) > 1e-9 {
		t.Errorf("busy time mid-service = %v, want 4", bt)
	}
	if !n.Busy() {
		t.Error("node should be busy")
	}
}

func TestZeroExecItem(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	done := false
	it := mkItem(t, "instant", 5, 0)
	it.Hooks = onDone(func(*Item, simtime.Time) { done = true })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Error("zero-exec item never completed")
	}
}

func TestItemStateString(t *testing.T) {
	states := map[ItemState]string{
		StateNew: "new", StateQueued: "queued", StateServing: "serving",
		StateDone: "done", StateAborted: "aborted", ItemState(42): "ItemState(42)",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if (EDF{}).Name() != "EDF" || (FIFO{}).Name() != "FIFO" {
		t.Error("policy names wrong")
	}
}

func TestMeanQueueLength(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	// Three unit jobs arrive at t=0: queue holds 2 during [0,1), 1 during
	// [1,2), 0 during [2,3). Mean over [0,3] = (2+1+0)/3 = 1.
	for i := 0; i < 3; i++ {
		if err := n.Submit(mkItem(t, "j", 10, 1)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got := n.MeanQueueLength(); math.Abs(got-1) > 1e-9 {
		t.Errorf("mean queue length = %v, want 1", got)
	}
	// Idle time afterwards dilutes the mean.
	eng.RunUntil(6)
	if got := n.MeanQueueLength(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("mean queue length after idle = %v, want 0.5", got)
	}
}

func TestMeanQueueLengthAtTimeZero(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	if got := n.MeanQueueLength(); got != 0 {
		t.Errorf("mean queue length at t=0 = %v, want 0", got)
	}
}
