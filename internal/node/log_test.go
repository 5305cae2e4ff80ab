package node

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
	"repro/internal/task"
)

// kindsOf lists the recorded event kinds in order.
func kindsOf(l Log) []EventKind {
	out := make([]EventKind, len(l))
	for i, e := range l {
		out[i] = e.Kind
	}
	return out
}

func TestLogRecordsLifeCycle(t *testing.T) {
	eng := des.New()
	var events Log
	n := New(0, eng, WithObserver(&events))
	if err := n.Submit(mkItem(t, "a", 10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(mkItem(t, "b", 20, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// a: enqueue, start, finish; b: enqueue, start, finish = 6 events.
	if events.Len() != 6 {
		t.Fatalf("events = %d, want 6: %v", events.Len(), kindsOf(events))
	}
	want := []EventKind{EventEnqueue, EventStart, EventEnqueue, EventFinish, EventStart, EventFinish}
	for i, k := range kindsOf(events) {
		if k != want[i] {
			t.Fatalf("event %d = %v, want %v", i, k, want[i])
		}
	}
	if events[3].At != 2 || events[5].At != 3 {
		t.Errorf("finish times = %v, %v; want 2 and 3", events[3].At, events[5].At)
	}
	if e := events[0]; e.Name != "a" || e.Virtual != 10 || e.Node != 0 || e.Home != 0 || e.Slot != 0 {
		t.Errorf("first event = %+v", e)
	}
}

func TestLogRecordsAbort(t *testing.T) {
	eng := des.New()
	var events Log
	n := New(0, eng, WithObserver(&events))
	blocker := mkItem(t, "blocker", 1, 5)
	victim := mkItem(t, "victim", 2, 1)
	if err := n.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(victim); err != nil {
		t.Fatal(err)
	}
	n.Remove(victim)
	eng.Run()
	aborts := 0
	for _, e := range events {
		if e.Kind == EventAbort && e.Name == "victim" {
			aborts++
		}
	}
	if aborts != 1 {
		t.Errorf("abort events for victim = %d, want 1: %v", aborts, kindsOf(events))
	}
}

func TestLogRecordsPreempt(t *testing.T) {
	eng := des.New()
	var events Log
	n := New(0, eng, WithObserver(&events), WithPreemption())
	if err := n.Submit(mkItem(t, "long", 100, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(3, func() {
		if err := n.Submit(mkItem(t, "urgent", 4, 1)); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	preempts, starts := 0, map[string]int{}
	for _, e := range events {
		if e.Kind == EventPreempt {
			preempts++
		}
		if e.Kind == EventStart {
			starts[e.Name]++
		}
	}
	if preempts != 1 {
		t.Errorf("preempt events = %d, want 1", preempts)
	}
	if starts["long"] != 2 {
		t.Errorf("long started %d times, want 2 (suspend + resume)", starts["long"])
	}
}

func TestLogUnnamedTasksGetStableLabels(t *testing.T) {
	eng := des.New()
	var events Log
	n := New(0, eng, WithObserver(&events))
	if err := n.Submit(mkItem(t, "", 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(mkItem(t, "", 20, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// The same item keeps one label across its events: enqueue, start,
	// finish.
	counts := map[string]int{}
	for _, label := range events.Labels() {
		counts[label]++
	}
	if len(counts) != 2 || counts["t0"] != 3 || counts["t1"] != 3 {
		t.Errorf("label counts = %v, want t0 and t1 three times each", counts)
	}
}

// TestLogLabelsMatchItemIdentity checks the render-time numbering
// against a reference that labels items by pointer and generation, as
// an observer holding the items would. Pooled items are recycled and
// resubmitted across two nodes, so a slot is reused under several
// generations and an item's events span nodes other than its home.
func TestLogLabelsMatchItemIdentity(t *testing.T) {
	type incarnation struct {
		it  *Item
		gen uint32
	}
	eng := des.New()
	var events Log
	ref := &recordingObserver{}
	obs := CombineObservers(&events, ref)
	nodes := []*Node{New(3, eng, WithObserver(obs)), New(5, eng, WithObserver(obs))}
	for round := 0; round < 12; round++ {
		var items []*Item
		for i := 0; i < 4; i++ {
			tk := task.MustSimple("", 0, simtime.Duration(1+i%3))
			if i == 3 {
				tk.Name = fmt.Sprintf("named%d", round)
			}
			it := nodes[(round+i)%2].AcquireItem(tk)
			if err := nodes[i%2].Submit(it); err != nil {
				t.Fatal(err)
			}
			items = append(items, it)
		}
		nodes[round%2].Remove(items[round%2])
		eng.Run()
		for _, it := range items {
			it.owner.RecycleItem(it)
		}
	}
	ids := map[incarnation]string{}
	labels := events.Labels()
	if len(labels) != len(ref.seen) {
		t.Fatalf("log has %d events, reference %d", len(labels), len(ref.seen))
	}
	for i, s := range ref.seen {
		want := s.name
		if want == "" {
			k := incarnation{s.it, s.gen}
			if want = ids[k]; want == "" {
				want = fmt.Sprintf("t%d", len(ids))
				ids[k] = want
			}
		}
		if labels[i] != want {
			t.Fatalf("event %d labelled %q, reference %q", i, labels[i], want)
		}
	}
	if len(ids) != 12*3 {
		t.Errorf("reference saw %d unnamed incarnations, want %d", len(ids), 12*3)
	}
}

// sighting is one event's item, generation and task name.
type sighting struct {
	it   *Item
	gen  uint32
	name string
}

// recordingObserver keeps a sighting per event.
type recordingObserver struct{ seen []sighting }

func (r *recordingObserver) note(it *Item) {
	r.seen = append(r.seen, sighting{it, it.Generation(), it.Task.Name})
}

func (r *recordingObserver) OnEnqueue(_ *Node, it *Item, _ simtime.Time) { r.note(it) }
func (r *recordingObserver) OnStart(_ *Node, it *Item, _ simtime.Time)   { r.note(it) }
func (r *recordingObserver) OnFinish(_ *Node, it *Item, _ simtime.Time)  { r.note(it) }
func (r *recordingObserver) OnAbort(_ *Node, it *Item, _ simtime.Time)   { r.note(it) }
func (r *recordingObserver) OnPreempt(_ *Node, it *Item, _ simtime.Time) { r.note(it) }

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		EventEnqueue: "enqueue", EventStart: "start", EventFinish: "finish",
		EventAbort: "abort", EventPreempt: "preempt", 0: "EventKind(0)", 99: "EventKind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestLogHashDeterministicAndSensitive(t *testing.T) {
	build := func(extra bool) Log {
		eng := des.New()
		var events Log
		n := New(0, eng, WithObserver(&events))
		a := task.MustSimple("a", 0, 2)
		a.VirtualDeadline = 10
		b := task.MustSimple("b", 0, 1)
		b.VirtualDeadline = 5
		if err := n.Submit(NewItem(a)); err != nil {
			t.Fatal(err)
		}
		if err := n.Submit(NewItem(b)); err != nil {
			t.Fatal(err)
		}
		if extra {
			c := task.MustSimple("c", 0, 1)
			c.VirtualDeadline = 7
			if err := n.Submit(NewItem(c)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return events
	}
	h1, h2 := build(false).Hash(), build(false).Hash()
	if h1 != h2 {
		t.Errorf("identical runs hash differently: %s vs %s", h1, h2)
	}
	if h3 := build(true).Hash(); h3 == h1 {
		t.Error("different traces produced the same hash")
	}
	if len(h1) != 32 {
		t.Errorf("hash length %d, want 32", len(h1))
	}
	if Log(nil).Hash() == h1 {
		t.Error("empty trace hash collides with non-empty trace")
	}
}
