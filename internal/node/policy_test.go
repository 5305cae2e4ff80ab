package node

import (
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
)

func TestLLFOrder(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPolicy(LLF{}))
	var order []string
	submit := func(name string, vdl simtime.Time, ex simtime.Duration) {
		it := mkItem(t, name, vdl, ex)
		it.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	submit("hold", 100, 1)
	// tight: laxity key 10-8 = 2; loose: 6-1 = 5. EDF would serve loose
	// (deadline 6) first; LLF must serve tight first.
	submit("loose", 6, 1)
	submit("tight", 10, 8)
	eng.Run()
	want := []string{"hold", "tight", "loose"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (least laxity first)", order, want)
		}
	}
}

func TestLLFBoostBand(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPolicy(LLF{}))
	var order []string
	hold := mkItem(t, "hold", 1, 1)
	hold.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
	urgent := mkItem(t, "urgent", 2, 0.5)
	urgent.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
	boosted := mkItem(t, "boosted", 100, 5)
	boosted.Task.PriorityBoost = true
	boosted.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
	for _, it := range []*Item{hold, urgent, boosted} {
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if order[1] != "boosted" {
		t.Errorf("order = %v, want the GF band first", order)
	}
}

func TestSJFOrder(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithPolicy(SJF{}))
	var order []string
	submit := func(name string, ex simtime.Duration) {
		it := mkItem(t, name, 5, ex) // same deadline: SJF ignores it anyway
		it.Hooks = onDone(func(i *Item, _ simtime.Time) { order = append(order, i.Task.Name) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	submit("hold", 1)
	submit("long", 9)
	submit("short", 1)
	submit("mid", 4)
	eng.Run()
	want := []string{"hold", "short", "mid", "long"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"edf": "EDF", "fifo": "FIFO", "llf": "LLF", "sjf": "SJF",
		"EDF": "EDF", "LLF": "LLF",
	} {
		p, ok := ParsePolicy(name)
		if !ok {
			t.Errorf("ParsePolicy(%q) not found", name)
			continue
		}
		if p.Name() != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Error("bogus policy resolved")
	}
}
