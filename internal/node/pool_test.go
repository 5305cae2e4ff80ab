package node

import (
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

func mustTask(t *testing.T, name string, exec float64) *task.Task {
	t.Helper()
	tk, err := task.NewSimple(name, 0, simtime.Duration(exec))
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// TestAcquireRecycleRoundTrip checks a recycled item comes back fully
// reset: no state of the previous incarnation (callbacks, heap index,
// residual demand, life-cycle state) may leak into the next one.
func TestAcquireRecycleRoundTrip(t *testing.T) {
	eng := des.New()
	n := New(0, eng)

	t1 := mustTask(t, "first", 3)
	it := n.AcquireItem(t1)
	gen := it.Generation()
	it.Hooks = nopHooks{}
	it.state = StateDone // pretend it ran
	it.remaining = 1
	n.RecycleItem(it)

	t2 := mustTask(t, "second", 7)
	it2 := n.AcquireItem(t2)
	if it2 != it {
		t.Fatalf("pool did not recycle: got %p, want %p", it2, it)
	}
	if it2.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", it2.Generation(), gen+1)
	}
	if it2.Task != t2 {
		t.Fatalf("Task = %v, want %v", it2.Task, t2)
	}
	if it2.Hooks != nil {
		t.Fatal("recycled item leaked callbacks from previous incarnation")
	}
	if it2.State() != StateNew || it2.index != -1 {
		t.Fatalf("state/index = %v/%d, want new/-1", it2.State(), it2.index)
	}
	if it2.remaining != t2.Exec {
		t.Fatalf("remaining = %v, want %v", it2.remaining, t2.Exec)
	}
}

type nopHooks struct{}

func (nopHooks) ItemDone(*Item, simtime.Time)       {}
func (nopHooks) ItemLocalAbort(*Item, simtime.Time) {}

// funcHooks adapts plain functions to Hooks; a nil function ignores its
// callback.
type funcHooks struct {
	done, localAbort func(*Item, simtime.Time)
}

func (h funcHooks) ItemDone(it *Item, at simtime.Time) {
	if h.done != nil {
		h.done(it, at)
	}
}

func (h funcHooks) ItemLocalAbort(it *Item, at simtime.Time) {
	if h.localAbort != nil {
		h.localAbort(it, at)
	}
}

// onDone returns Hooks calling f on service completion.
func onDone(f func(*Item, simtime.Time)) Hooks { return funcHooks{done: f} }

// TestStaleRefRejected checks generation-tagged handles: a ref taken
// before recycling must resolve to nil afterwards, even once the item is
// live again as a different incarnation.
func TestStaleRefRejected(t *testing.T) {
	eng := des.New()
	n := New(0, eng)

	it := n.AcquireItem(mustTask(t, "a", 1))
	ref := it.Ref()
	if ref.Item() != it {
		t.Fatal("live ref did not resolve")
	}
	it.state = StateDone
	n.RecycleItem(it)
	if got := ref.Item(); got != nil {
		t.Fatalf("stale ref resolved to %p, want nil", got)
	}

	// Reincarnate and make the new incarnation live at the node.
	it2 := n.AcquireItem(mustTask(t, "b", 5))
	if err := n.Submit(it2); err != nil {
		t.Fatal(err)
	}
	if got := ref.Item(); got != nil {
		t.Fatal("stale ref resolved against the item's next incarnation")
	}

	var zero ItemRef
	if zero.Item() != nil {
		t.Fatal("zero ItemRef resolved")
	}
}

// TestRecycleLiveOrTwicePanics checks the pool's misuse guards.
func TestRecycleLiveOrTwicePanics(t *testing.T) {
	eng := des.New()
	n := New(0, eng)

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}

	it := n.AcquireItem(mustTask(t, "live", 2))
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	expectPanic("recycle serving item", func() { n.RecycleItem(it) })

	done := n.AcquireItem(mustTask(t, "done", 2))
	done.state = StateDone
	n.RecycleItem(done)
	expectPanic("double recycle", func() { n.RecycleItem(done) })
}

// TestPoolAliasingProperty drives a randomized churn of submit, serve,
// remove and recycle through a live node and checks — for thousands of
// incarnations — that no recycled item ever surfaces with stale state and
// that every ref taken on a previous incarnation has gone stale. Run with
// -race to also prove the pool involves no cross-goroutine aliasing.
func TestPoolAliasingProperty(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithLocalAbort())
	s := rng.NewStream(7)

	var history []ItemRef
	var live []*Item
	served, aborted := 0, 0

	dropLive := func(it *Item) {
		for i, v := range live {
			if v == it {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	finish := func(it *Item, _ simtime.Time) {
		history = append(history, it.Ref())
		dropLive(it)
		served++
		it.owner.RecycleItem(it)
	}
	abort := func(it *Item, _ simtime.Time) {
		history = append(history, it.Ref())
		dropLive(it)
		aborted++
		it.owner.RecycleItem(it)
	}

	for round := 0; round < 4000; round++ {
		switch s.IntN(4) {
		case 0, 1: // submit a fresh task
			exec := 0.1 + s.Exp(1)
			tk, err := task.NewSimple("", 0, simtime.Duration(exec))
			if err != nil {
				t.Fatal(err)
			}
			tk.RealDeadline = eng.Now().Add(simtime.Duration(s.Exp(3)))
			tk.VirtualDeadline = tk.RealDeadline
			it := n.AcquireItem(tk)
			// Fresh incarnation must be pristine.
			if it.Hooks != nil {
				t.Fatalf("round %d: acquired item leaked callbacks", round)
			}
			if it.State() != StateNew || it.remaining != tk.Exec {
				t.Fatalf("round %d: acquired item state %v remaining %v", round, it.State(), it.remaining)
			}
			it.Hooks = funcHooks{done: finish, localAbort: abort}
			live = append(live, it)
			if err := n.Submit(it); err != nil {
				t.Fatal(err)
			}
		case 2: // withdraw a random live item (process-manager abortion)
			if len(live) == 0 {
				continue
			}
			it := live[s.IntN(len(live))]
			if n.Remove(it) {
				// Remove of a serving item re-dispatches and may locally
				// abort other items, shifting live — search by identity.
				dropLive(it)
				history = append(history, it.Ref())
				n.RecycleItem(it)
			}
		case 3: // let simulated time pass
			if eng.Pending() > 0 {
				eng.Step()
			}
		}
		// Every historical ref was recorded just before its recycle, so it
		// must be stale: resolving it now would be pool aliasing.
		if round%64 == 0 {
			for _, h := range history {
				if h.Item() != nil {
					t.Fatalf("round %d: stale ref resolved against a recycled item", round)
				}
			}
		}
	}
	eng.Run()
	if served == 0 || aborted == 0 {
		t.Fatalf("property run exercised too little: served=%d aborted=%d", served, aborted)
	}
	for _, h := range history {
		if h.Item() != nil {
			t.Fatal("ref recorded before recycle still resolves after the run")
		}
	}
}

// TestItemSlot checks the dense item index: unassigned until the first
// Submit, handed out 0, 1, ... per home node, kept across RecycleItem
// and resubmission elsewhere, so a node's slots stay bounded by its
// pool's high-water mark under steady acquire/recycle churn.
func TestItemSlot(t *testing.T) {
	eng := des.New()
	a, b := New(3, eng), New(7, eng)

	fresh := NewItem(mustTask(t, "fresh", 1))
	if h, s := fresh.Slot(); h != -1 || s != -1 {
		t.Fatalf("unsubmitted item slot = (%d, %d), want (-1, -1)", h, s)
	}

	const window = 4
	live := make([]*Item, 0, window)
	for i := 0; i < window; i++ {
		it := a.AcquireItem(mustTask(t, "x", 1))
		if err := a.Submit(it); err != nil {
			t.Fatal(err)
		}
		if h, s := it.Slot(); h != 3 || s != i {
			t.Fatalf("item %d slot = (%d, %d), want (3, %d)", i, h, s, i)
		}
		live = append(live, it)
	}
	for round := 0; round < 50; round++ {
		it := live[round%window]
		h0, s0 := it.Slot()
		a.Remove(it)
		a.RecycleItem(it)
		again := a.AcquireItem(mustTask(t, "y", 1))
		if again != it {
			t.Fatal("pool did not return the recycled item")
		}
		// A recycled item keeps its slot wherever it is submitted next.
		target := a
		if round%2 == 1 {
			target = b
		}
		if err := target.Submit(again); err != nil {
			t.Fatal(err)
		}
		if h, s := again.Slot(); h != h0 || s != s0 {
			t.Fatalf("round %d: slot moved from (%d, %d) to (%d, %d)", round, h0, s0, h, s)
		}
		if round%2 == 1 {
			b.Remove(again) // hand it back to a's pool on the next round
		}
	}
	if a.slots != window || b.slots != 0 {
		t.Fatalf("slots handed out: a=%d b=%d, want %d and 0", a.slots, b.slots, window)
	}
	if err := b.Submit(fresh); err != nil {
		t.Fatal(err)
	}
	if h, s := fresh.Slot(); h != 7 || s != 0 {
		t.Fatalf("first item at b slot = (%d, %d), want (7, 0)", h, s)
	}
}
