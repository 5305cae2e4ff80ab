package node

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

func TestMultiServerParallelService(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithServers(2))
	var finishes []simtime.Time
	for i := 0; i < 2; i++ {
		it := mkItem(t, "j", 10, 4)
		it.Hooks = onDone(func(_ *Item, at simtime.Time) { finishes = append(finishes, at) })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	// Both run concurrently: both finish at 4.
	if len(finishes) != 2 || finishes[0] != 4 || finishes[1] != 4 {
		t.Errorf("finishes = %v, want both at 4", finishes)
	}
	if bt := n.BusyTime(); math.Abs(float64(bt)-8) > 1e-9 {
		t.Errorf("busy time = %v, want 8 (2 servers x 4)", bt)
	}
	// Utilization normalises by capacity: 8 work / (4 time x 2 servers) = 1.
	if u := n.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestMultiServerThirdJobWaits(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithServers(2))
	var third simtime.Time
	for i := 0; i < 2; i++ {
		if err := n.Submit(mkItem(t, "front", 10, 4)); err != nil {
			t.Fatal(err)
		}
	}
	it := mkItem(t, "third", 10, 1)
	it.Hooks = onDone(func(_ *Item, at simtime.Time) { third = at })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	if n.QueueLen() != 1 {
		t.Errorf("queue = %d, want 1 (two in service)", n.QueueLen())
	}
	eng.Run()
	if third != 5 {
		t.Errorf("third finished at %v, want 5 (waits for a server at 4)", third)
	}
}

func TestMultiServerRemoveInService(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithServers(2))
	a := mkItem(t, "a", 10, 100)
	b := mkItem(t, "b", 10, 100)
	for _, it := range []*Item{a, b} {
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.At(5, func() {
		if !n.Remove(a) {
			t.Error("Remove(a) failed")
		}
		if !n.Busy() {
			t.Error("node should still be busy with b")
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(6)
	// Busy time at t=6: a served 5, b served 6.
	if bt := n.BusyTime(); math.Abs(float64(bt)-11) > 1e-9 {
		t.Errorf("busy = %v, want 11", bt)
	}
}

func TestNewValidation(t *testing.T) {
	eng := des.New()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero servers", func() { New(0, eng, WithServers(0)) })
	mustPanic("preemptive multi-server", func() {
		New(0, eng, WithServers(2), WithPreemption())
	})
	if n := New(0, eng, WithServers(3)); n.Servers() != 3 {
		t.Errorf("Servers = %d, want 3", n.Servers())
	}
}

// TestMMCTheory drives a 3-server node with Poisson arrivals and checks
// the mean wait against the Erlang C formula.
func TestMMCTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const (
		lambda  = 2.0
		mu      = 1.0
		servers = 3
		horizon = 60000.0
	)
	eng := des.New()
	n := New(0, eng, WithServers(servers))
	stream := rng.NewStream(7)
	var totalWait float64
	var count int64

	var arrive func()
	arrive = func() {
		tk := task.MustSimple("", 0, simtime.Duration(stream.Exp(1/mu)))
		tk.VirtualDeadline = eng.Now().Add(simtime.Duration(stream.Uniform(1, 5)))
		tk.RealDeadline = tk.VirtualDeadline
		tk.Arrival = eng.Now()
		it := NewItem(tk)
		it.Hooks = onDone(func(done *Item, at simtime.Time) {
			wait := float64(at.Sub(done.Task.Arrival)) - float64(done.Task.Exec)
			totalWait += wait
			count++
		})
		if err := n.Submit(it); err != nil {
			t.Error(err)
		}
		next := eng.Now().Add(simtime.Duration(stream.Exp(1 / lambda)))
		if next.Before(simtime.Time(horizon)) {
			if _, err := eng.At(next, arrive); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := eng.At(0.01, arrive); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	got := totalWait / float64(count)
	q := queueing.MMC{Lambda: lambda, Mu: mu, Servers: servers}
	want, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.05 {
		t.Errorf("mean wait = %v, Erlang C gives %v", got, want)
	}
}
