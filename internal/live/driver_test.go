package live

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// TestAddNodeConcurrentWithGo registers nodes while tasks are submitted.
// Node registration and submission-time validation both touch the node
// set; under -race this must stay clean.
func TestAddNodeConcurrentWithGo(t *testing.T) {
	o := orch(t, nil, nil, "a")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := o.AddNode(fmt.Sprintf("n%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		h, err := o.Go(context.Background(), Step("s", "a", 0, func(context.Context) error { return nil }),
			time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// fakeClock is a manual clock: time moves only when the test fires the
// earliest pending timer.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer // in creation order
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Timer(d time.Duration) (<-chan time.Time, func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, ft)
	return ft.ch, func() bool { return c.remove(ft) }
}

func (c *fakeClock) remove(ft *fakeTimer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.timers {
		if x == ft {
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			return true
		}
	}
	return false
}

// waiting returns the number of pending timers.
func (c *fakeClock) waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// fireNext moves the clock to the earliest pending timer and fires it
// (the first created among equals); it reports false when none is
// pending.
func (c *fakeClock) fireNext() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return false
	}
	best := 0
	for i, ft := range c.timers {
		if ft.at.Before(c.timers[best].at) {
			best = i
		}
	}
	ft := c.timers[best]
	c.timers = append(c.timers[:best], c.timers[best+1:]...)
	if ft.at.After(c.now) {
		c.now = ft.at
	}
	ft.ch <- c.now
	return true
}

// unit is a dyadic fraction of a second, exact both in nanoseconds and in
// float64 seconds, so live and simulated instants compare bit for bit.
const unit = time.Second / 256

// diffTask is one task of the differential workload.
type diffTask struct {
	work     *Work
	deadline time.Duration // after the epoch
}

// diffWorkload builds tasks that contend for three nodes. Every step of
// the live run sleeps its predicted duration on clk. The durations are
// distinct powers of two units, so no two steps complete at the same
// instant (a completion instant sums a distinct set of durations); the
// simulated side checks it.
func diffWorkload(clk *fakeClock) []diffTask {
	st := func(name, node string, units int) *Work {
		d := time.Duration(units) * unit
		return Step(name, node, d, func(context.Context) error {
			ch, _ := clk.Timer(d)
			<-ch
			return nil
		})
	}
	return []diffTask{
		{Sequence("t1", st("t1.a", "a", 256), Group("t1.g", st("t1.b", "b", 512), st("t1.c", "c", 1024)), st("t1.d", "a", 2048)), 8000 * unit},
		{Group("t2", st("t2.a", "a", 64), Sequence("t2.s", st("t2.b", "b", 16), st("t2.c", "c", 128))), 600 * unit},
		{Sequence("t3", st("t3.c", "c", 32), st("t3.b", "b", 4), st("t3.a", "a", 8)), 300 * unit},
		{Group("t4", st("t4.a", "a", 1), st("t4.b", "b", 2), st("t4.c", "c", 4096)), 5000 * unit},
	}
}

// outcome is what the differential test compares per step.
type outcome struct {
	name    string
	virtual time.Time
	boost   bool
	finish  time.Time
}

// completionOrder returns the step names sorted by finish instant.
func completionOrder(outs []outcome) []string {
	sorted := append([]outcome(nil), outs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].finish.Before(sorted[j].finish) })
	names := make([]string, len(sorted))
	for i, x := range sorted {
		names[i] = x.name
	}
	return names
}

// TestLiveMatchesSimulation runs the same Work in live mode under a fake
// clock and as a plain DES submission to procmgr and node. Both must
// assign identical virtual deadlines and boost flags and complete the
// steps at the same instants, hence in the same order.
func TestLiveMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		ssp sda.SSP
		psp sda.PSP
	}{
		{sda.EQF{}, sda.MustDiv(1)},
		{sda.EQS{}, sda.GF{}},
		{sda.SerialUD{}, sda.UD{}},
	} {
		name := tc.ssp.Name() + "-" + tc.psp.Name()
		t.Run(name, func(t *testing.T) {
			live := runLive(t, tc.ssp, tc.psp)
			sim := runSim(t, tc.ssp, tc.psp)
			if len(live) != len(sim) {
				t.Fatalf("live reported %d steps, simulation %d", len(live), len(sim))
			}
			for i := range sim {
				l, s := live[i], sim[i]
				if l.name != s.name || !l.virtual.Equal(s.virtual) || l.boost != s.boost || !l.finish.Equal(s.finish) {
					t.Errorf("step %d: live %+v, simulated %+v", i, l, s)
				}
			}
			lo, so := completionOrder(live), completionOrder(sim)
			t.Logf("completion order %v", so)
			if fmt.Sprint(lo) != fmt.Sprint(so) {
				t.Errorf("completion order:\nlive %v\nsim  %v", lo, so)
			}
		})
	}
}

var diffEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// runLive submits the workload to a live orchestrator on a fake clock and
// advances the clock one timer at a time, each time only once every
// running step function is asleep on the clock and the loop is idle.
func runLive(t *testing.T, ssp sda.SSP, psp sda.PSP) []outcome {
	clk := &fakeClock{now: diffEpoch}
	o := newOrchestrator(clk, WithStrategies(ssp, psp))
	t.Cleanup(o.Close)
	for _, n := range []string{"a", "b", "c"} {
		if _, err := o.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// Between fires the timer count only grows, so when it is the same
	// before and after the loop counts the running functions, and equals
	// that count, every one of them was asleep when the loop was idle.
	quiesce := func() {
		for deadline := time.Now().Add(5 * time.Second); ; {
			before, running := clk.waiting(), 0
			o.do(func() {
				for _, lt := range o.tasks {
					running += lt.running
				}
			})
			if before == running && running == clk.waiting() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("live run did not settle: %d running, %d asleep", running, clk.waiting())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	var handles []*Handle
	for _, dt := range diffWorkload(clk) {
		h, err := o.Go(context.Background(), dt.work, diffEpoch.Add(dt.deadline))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for quiesce(); clk.fireNext(); quiesce() {
	}
	var outs []outcome
	for _, h := range handles {
		rep, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != nil {
			t.Fatalf("live task failed: %v", rep.Err)
		}
		for _, s := range rep.Steps {
			outs = append(outs, outcome{s.Name, s.Virtual, s.Boost, s.Finish})
		}
	}
	return outs
}

// runSim submits the same workload to procmgr and node on a plain engine,
// with each leaf's execution time equal to its predicted duration.
func runSim(t *testing.T, ssp sda.SSP, psp sda.PSP) []outcome {
	eng := des.New()
	nodes := []*node.Node{node.New(0, eng), node.New(1, eng), node.New(2, eng)}
	mgr := procmgr.New(eng, nodes, ssp, psp)
	// The builder only needs the node names; the tree is the one live
	// mode submits, with real execution times.
	b := &Orchestrator{byName: map[string]*Node{}, steps: map[*task.Task]*step{}}
	for i, n := range []string{"a", "b", "c"} {
		b.byName[n] = &Node{name: n, n: nodes[i]}
	}
	var leaves []*task.Task
	for _, dt := range diffWorkload(&fakeClock{}) {
		root := b.build(&liveTask{}, dt.work)
		root.RealDeadline = simtime.Time(dt.deadline.Seconds())
		for _, l := range root.Leaves() {
			l.Exec = l.Pex
			leaves = append(leaves, l)
		}
		if err := mgr.SubmitGlobal(root); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	instant := func(s simtime.Time) time.Time {
		return diffEpoch.Add(time.Duration(float64(s) * float64(time.Second)))
	}
	outs := make([]outcome, len(leaves))
	seen := map[simtime.Time]string{}
	for i, l := range leaves {
		if prev, dup := seen[l.Finish]; dup {
			t.Fatalf("steps %s and %s complete together; the comparison needs distinct instants", prev, l.Name)
		}
		seen[l.Finish] = l.Name
		outs[i] = outcome{l.Name, instant(l.VirtualDeadline), l.PriorityBoost, instant(l.Finish)}
	}
	return outs
}
