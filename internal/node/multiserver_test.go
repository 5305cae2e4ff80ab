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

// mmcMeanWait drives a node with the given servers and rate under
// Poisson arrivals at lambda and exponential work of mean 1 (so service
// is exponential at rate mu = rate) until horizon, and returns the mean
// wait of the completed tasks.
func mmcMeanWait(t *testing.T, servers int, rate, lambda, horizon float64, seed uint64) float64 {
	t.Helper()
	eng := des.New()
	n := New(0, eng, WithServers(servers), WithRate(rate))
	stream := rng.NewStream(seed)
	var totalWait float64
	var count int64

	var arrive func()
	arrive = func() {
		tk := task.MustSimple("", 0, simtime.Duration(stream.Exp(1)))
		tk.VirtualDeadline = eng.Now().Add(simtime.Duration(stream.Uniform(1, 5)))
		tk.RealDeadline = tk.VirtualDeadline
		tk.Arrival = eng.Now()
		it := NewItem(tk)
		it.Hooks = onDone(func(done *Item, at simtime.Time) {
			totalWait += float64(at.Sub(done.Task.Arrival)) - float64(done.Task.Exec)/rate
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
	return totalWait / float64(count)
}

// TestMMCTheory checks multi-server nodes against the Erlang C mean wait
// at the (servers, rate) corners of the shipped fleet templates
// (testdata/scenarios/stress_*.json: "big" 3 × 1.1–1.4, "warm" 2 × 1.2–1.5,
// "fast" 2 × 1.3–1.7), each at utilisation 0.5 and 0.8, plus the
// original 3-server unit-rate point.
//
// tol is absolute, in time units, and comes from the run length: the
// standard deviation (sd) of one run's mean wait shrinks as
// 1/sqrt(horizon), and each tol is four of them at the row's horizon, as
// measured over 20 seeds (2.3% of the wait at utilisation 0.5, 3–3.6% at
// 0.8). Loaded rows run twice as long because their waits are far more
// autocorrelated.
func TestMMCTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	for _, tc := range []struct {
		servers      int
		rate, rho    float64
		horizon, tol float64
	}{
		{3, 1, 2.0 / 3, 60000, 0.05}, // the original point: lambda 2, mu 1; sd 0.011
		{3, 1.1, 0.5, 40000, 0.014},  // sd 0.0034
		{3, 1.1, 0.8, 80000, 0.12},   // sd 0.029
		{3, 1.4, 0.5, 40000, 0.010},  // sd 0.0024
		{3, 1.4, 0.8, 80000, 0.095},  // sd 0.023
		{2, 1.2, 0.5, 40000, 0.026},  // sd 0.0065
		{2, 1.2, 0.8, 80000, 0.22},   // sd 0.054
		{2, 1.3, 0.5, 40000, 0.023},  // sd 0.0056
		{2, 1.3, 0.8, 80000, 0.19},   // sd 0.046
		{2, 1.5, 0.5, 40000, 0.019},  // sd 0.0047
		{2, 1.5, 0.8, 80000, 0.15},   // sd 0.036
		{2, 1.7, 0.5, 40000, 0.019},  // sd 0.0045
		{2, 1.7, 0.8, 80000, 0.125},  // sd 0.031
	} {
		lambda := tc.rho * float64(tc.servers) * tc.rate
		q := queueing.MMC{Lambda: lambda, Mu: tc.rate, Servers: tc.servers}
		want, err := q.MeanWait()
		if err != nil {
			t.Fatal(err)
		}
		got := mmcMeanWait(t, tc.servers, tc.rate, lambda, tc.horizon, 7)
		if math.Abs(got-want) > tc.tol {
			t.Errorf("c=%d mu=%v rho=%.3g: mean wait = %.4f, Erlang C gives %.4f (tol %v)",
				tc.servers, tc.rate, tc.rho, got, want, tc.tol)
		}
	}
}
