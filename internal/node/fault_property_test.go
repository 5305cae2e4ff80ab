package node

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/task"
)

// faultLog records every scheduling event as text; two runs of the same
// seeded schedule must produce byte-identical logs (the node's fault
// paths may not depend on map iteration order or pointer identity).
type faultLog struct {
	b strings.Builder
}

func (l *faultLog) note(tag string, n *Node, it *Item, at simtime.Time) {
	fmt.Fprintf(&l.b, "%s n%d %s t=%v\n", tag, n.ID(), it.Task.Name, at)
}
func (l *faultLog) OnEnqueue(n *Node, it *Item, at simtime.Time) { l.note("enq", n, it, at) }
func (l *faultLog) OnStart(n *Node, it *Item, at simtime.Time)   { l.note("start", n, it, at) }
func (l *faultLog) OnFinish(n *Node, it *Item, at simtime.Time)  { l.note("fin", n, it, at) }
func (l *faultLog) OnAbort(n *Node, it *Item, at simtime.Time)   { l.note("abort", n, it, at) }
func (l *faultLog) OnPreempt(n *Node, it *Item, at simtime.Time) { l.note("pre", n, it, at) }

// faultRun is the outcome of one randomized crash/set_rate/restart
// interleaving, for cross-run comparison and conservation checks.
type faultRun struct {
	log       string
	submitted int
	done      map[*Item]int // per-item completion count
	work      float64       // sum of exec over completed items
	busy      float64
	elapsed   float64
	servers   int
	minRate   float64
	maxRate   float64
	crashes   uint64
}

// driveFaults runs a 3-server node under a seeded random interleaving of
// submissions, crashes, restarts and rate changes. withCrashes=false
// restricts the faults to set_rate, which keeps service-progress loss out
// of the picture and tightens the busy-time band.
func driveFaults(t *testing.T, seed uint64, withCrashes bool) *faultRun {
	t.Helper()
	stream := rng.NewStream(seed)
	eng := des.New()
	lg := &faultLog{}
	n := New(0, eng, WithServers(3), WithObserver(lg))

	r := &faultRun{done: make(map[*Item]int), minRate: 1, maxRate: 1, servers: n.Servers()}
	useRate := func(rate float64) {
		if rate < r.minRate {
			r.minRate = rate
		}
		if rate > r.maxRate {
			r.maxRate = rate
		}
	}

	var live []*Item
	submit := func() {
		exec := simtime.Duration(stream.Exp(1))
		tk := task.MustSimple(fmt.Sprintf("t%d", r.submitted), 0, exec)
		tk.VirtualDeadline = eng.Now().Add(simtime.Duration(stream.Uniform(0.5, 6)))
		tk.RealDeadline = tk.VirtualDeadline
		it := NewItem(tk)
		it.Hooks = onDone(func(done *Item, _ simtime.Time) {
			r.done[done]++
			r.work += float64(exec)
		})
		if err := n.Submit(it); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		r.submitted++
		live = append(live, it)
	}

	for i := 0; i < 800; i++ {
		at := simtime.Time(stream.Uniform(0, 300))
		if _, err := eng.At(at, func() {
			p := stream.Float64()
			switch {
			case p < 0.70:
				submit()
			case p < 0.82 && withCrashes:
				if n.Down() {
					n.Restart()
				} else {
					n.Crash()
				}
			case p < 0.94:
				rate := stream.Uniform(0.5, 2.0)
				useRate(rate)
				n.SetRate(rate)
			default:
				if n.Down() {
					n.Restart()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// End of schedule: bring the node back up so every queued item drains.
	if _, err := eng.At(301, func() {
		if n.Down() {
			n.Restart()
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	r.log = lg.b.String()
	r.busy = float64(n.BusyTime())
	r.elapsed = float64(eng.Now())
	r.crashes = n.Crashes()
	if n.Busy() || n.QueueLen() != 0 {
		t.Error("node not drained after final restart")
	}
	return r
}

// TestFaultInterleavingProperties is the property test for the crash
// requeue path and the set_rate residual-demand rescheduling on a
// multi-server node:
//
//   - no lost or duplicated items: every submitted item completes exactly
//     once, even when crashes requeue in-service items mid-run;
//   - busy-time conservation: total busy time is at least the completed
//     work served end-to-end at the fastest rate (crash-lost progress can
//     only add busy time), and never exceeds elapsed x servers; without
//     crashes it is also bounded above by the work at the slowest rate;
//   - determinism: the same seed reproduces a byte-identical event log.
func TestFaultInterleavingProperties(t *testing.T) {
	for _, crashes := range []bool{true, false} {
		crashes := crashes
		name := "crash-setrate-restart"
		if !crashes {
			name = "setrate-only"
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				a := driveFaults(t, seed, crashes)
				b := driveFaults(t, seed, crashes)
				if a.log != b.log {
					t.Fatalf("seed %d: event log differs across identical runs", seed)
				}

				if len(a.done) != a.submitted {
					t.Errorf("seed %d: %d items submitted, %d completed — items lost", seed, a.submitted, len(a.done))
				}
				for it, count := range a.done {
					if count != 1 {
						t.Errorf("seed %d: item %s completed %d times", seed, it.Task.Name, count)
					}
				}
				if crashes && a.crashes == 0 {
					t.Errorf("seed %d: schedule never crashed the node", seed)
				}

				const tol = 1e-6
				if lower := a.work / a.maxRate; a.busy < lower-tol {
					t.Errorf("seed %d: busy time %v below work/maxRate %v — work appeared from nowhere", seed, a.busy, lower)
				}
				if capacity := a.elapsed * float64(a.servers); a.busy > capacity+tol {
					t.Errorf("seed %d: busy time %v exceeds capacity %v", seed, a.busy, capacity)
				}
				if !crashes {
					if upper := a.work / a.minRate; a.busy > upper+tol {
						t.Errorf("seed %d: busy time %v above work/minRate %v without any crash loss", seed, a.busy, upper)
					}
				}
			}
		})
	}
}
