package live

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sda"
)

// sleepStep returns a step that sleeps for d (observing the context).
func sleepStep(name, node string, d time.Duration) *Work {
	return Step(name, node, d, func(ctx context.Context) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// orch builds an orchestrator with the named nodes.
func orch(t *testing.T, ssp sda.SSP, psp sda.PSP, nodes ...string) *Orchestrator {
	t.Helper()
	o := NewOrchestrator(WithStrategies(ssp, psp))
	for _, n := range nodes {
		if _, err := o.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(o.Close)
	return o
}

func TestSingleStepCompletes(t *testing.T) {
	o := orch(t, nil, nil, "a")
	ran := false
	w := Step("s", "a", time.Millisecond, func(ctx context.Context) error {
		ran = true
		return nil
	})
	h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("step did not run")
	}
	if rep.Missed || rep.Err != nil {
		t.Errorf("report = %+v, want clean hit", rep)
	}
	if len(rep.Steps) != 1 || rep.Steps[0].Err != nil {
		t.Errorf("steps = %+v", rep.Steps)
	}
}

func TestSequenceOrderAndDeadlines(t *testing.T) {
	o := orch(t, sda.EQF{}, sda.UD{}, "a", "b")
	var mu sync.Mutex
	var order []string
	mk := func(name, node string) *Work {
		return Step(name, node, 10*time.Millisecond, func(ctx context.Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			return nil
		})
	}
	w := Sequence("seq", mk("first", "a"), mk("second", "b"), mk("third", "a"))
	h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(order, ",") != "first,second,third" {
		t.Errorf("order = %v", order)
	}
	// EQF budgets: later stages must carry later virtual deadlines.
	byName := map[string]StepReport{}
	for _, s := range rep.Steps {
		byName[s.Name] = s
	}
	if !byName["first"].Virtual.Before(byName["second"].Virtual) ||
		!byName["second"].Virtual.Before(byName["third"].Virtual) {
		t.Errorf("EQF virtual deadlines not increasing: %+v", rep.Steps)
	}
	if byName["first"].Virtual.After(rep.Deadline) {
		t.Error("stage budget exceeds the end-to-end deadline")
	}
}

func TestGroupRunsInParallel(t *testing.T) {
	o := orch(t, nil, nil, "a", "b", "c")
	var running int32
	var peak int32
	mk := func(name, node string) *Work {
		return Step(name, node, 30*time.Millisecond, func(ctx context.Context) error {
			n := atomic.AddInt32(&running, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			time.Sleep(30 * time.Millisecond)
			atomic.AddInt32(&running, -1)
			return nil
		})
	}
	w := Group("g", mk("x", "a"), mk("y", "b"), mk("z", "c"))
	h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("peak concurrency %d, want >= 2 (steps on distinct nodes)", peak)
	}
}

func TestDivAssignsEarlierVirtualDeadline(t *testing.T) {
	o := orch(t, nil, sda.MustDiv(1), "a", "b")
	w := Group("g", sleepStep("x", "a", time.Millisecond), sleepStep("y", "b", time.Millisecond))
	deadline := time.Now().Add(800 * time.Millisecond)
	h, err := o.Go(context.Background(), w, deadline)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Steps {
		// DIV-1 over 2 subtasks: the virtual deadline is about half way to
		// the real deadline.
		lead := deadline.Sub(s.Virtual)
		if lead < 300*time.Millisecond || lead > 500*time.Millisecond {
			t.Errorf("step %s virtual lead = %v, want ~400ms", s.Name, lead)
		}
		if s.Boost {
			t.Error("DIV must not set the GF boost")
		}
	}
}

func TestGFBoostPropagates(t *testing.T) {
	o := orch(t, nil, sda.GF{}, "a", "b")
	w := Group("g", sleepStep("x", "a", time.Millisecond), sleepStep("y", "b", time.Millisecond))
	h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Steps {
		if !s.Boost {
			t.Errorf("step %s missing GF boost", s.Name)
		}
	}
}

func TestEDFOrderOnBusyNode(t *testing.T) {
	// One node, one orchestrator; submit a blocker, then two tasks with
	// very different deadlines. The urgent one must run first.
	o := orch(t, nil, nil, "a")
	var mu sync.Mutex
	var order []string
	mk := func(name string, d time.Duration) *Work {
		return Step(name, "a", d, func(ctx context.Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			time.Sleep(d)
			return nil
		})
	}
	blocker, err := o.Go(context.Background(), mk("blocker", 60*time.Millisecond),
		time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the blocker start
	relaxed, err := o.Go(context.Background(), mk("relaxed", time.Millisecond),
		time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := o.Go(context.Background(), mk("urgent", time.Millisecond),
		time.Now().Add(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{blocker, relaxed, urgent} {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(order, ",") != "blocker,urgent,relaxed" {
		t.Errorf("order = %v, want blocker,urgent,relaxed (EDF)", order)
	}
}

func TestMissedDeadlineReported(t *testing.T) {
	o := orch(t, nil, nil, "a")
	w := sleepStep("slow", "a", 50*time.Millisecond)
	h, err := o.Go(context.Background(), w, time.Now().Add(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Missed {
		t.Error("a 50ms step against a 10ms deadline must miss")
	}
}

func TestStepContextCarriesRealDeadline(t *testing.T) {
	o := orch(t, nil, sda.MustDiv(100), "a")
	deadline := time.Now().Add(150 * time.Millisecond)
	var got time.Time
	w := Step("s", "a", time.Millisecond, func(ctx context.Context) error {
		if dl, ok := ctx.Deadline(); ok {
			got = dl
		}
		return nil
	})
	h, err := o.Go(context.Background(), w, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The context must carry the REAL deadline, not the (much earlier)
	// virtual one — the virtual deadline is priority only.
	if !got.Equal(deadline) {
		t.Errorf("ctx deadline = %v, want the real deadline %v", got, deadline)
	}
}

func TestFailureCancelsDownstream(t *testing.T) {
	o := orch(t, nil, nil, "a", "b")
	boom := errors.New("boom")
	ranThird := false
	w := Sequence("seq",
		sleepStep("ok", "a", time.Millisecond),
		Step("fail", "b", time.Millisecond, func(ctx context.Context) error { return boom }),
		Step("never", "a", time.Millisecond, func(ctx context.Context) error {
			ranThird = true
			return nil
		}),
	)
	h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ranThird {
		t.Error("stage after a failure must not run")
	}
	if !rep.Missed || rep.Err == nil || !errors.Is(rep.Err, boom) {
		t.Errorf("report = missed=%v err=%v, want failed with boom", rep.Missed, rep.Err)
	}
	if len(rep.Steps) != 3 {
		t.Errorf("steps = %d, want 3 (skipped stage still reported)", len(rep.Steps))
	}
}

func TestParallelFailureCancelsSiblings(t *testing.T) {
	o := orch(t, nil, nil, "a", "b")
	boom := errors.New("boom")
	w := Group("g",
		Step("fail", "a", time.Millisecond, func(ctx context.Context) error { return boom }),
		Step("slow", "b", time.Second, func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Second):
				return nil
			}
		}),
	)
	h, err := o.Go(context.Background(), w, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("failure took %v to propagate; sibling was not cancelled", elapsed)
	}
	if !errors.Is(rep.Err, boom) {
		t.Errorf("err = %v, want boom", rep.Err)
	}
}

func TestConcurrentFailuresResolveOnce(t *testing.T) {
	// Two parallel failures race to skip the same serial successor; the
	// handle must resolve exactly once (no panic, no hang).
	o := orch(t, nil, nil, "a", "b", "c")
	boom := errors.New("boom")
	failStep := func(name, node string) *Work {
		return Step(name, node, time.Millisecond, func(ctx context.Context) error { return boom })
	}
	for i := 0; i < 20; i++ {
		w := Sequence("seq",
			Group("g", failStep("f1", "a"), failStep("f2", "b")),
			sleepStep("tail", "c", time.Millisecond),
		)
		h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rep, err := h.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if len(rep.Steps) != 3 {
			t.Fatalf("iteration %d: %d steps reported, want 3", i, len(rep.Steps))
		}
	}
}

func TestPanicInStepIsContained(t *testing.T) {
	o := orch(t, nil, nil, "a")
	w := Step("bad", "a", time.Millisecond, func(ctx context.Context) error {
		panic("kaboom")
	})
	h, err := o.Go(context.Background(), w, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "kaboom") {
		t.Errorf("err = %v, want panic surfaced", rep.Err)
	}
	// The node must survive and serve the next task.
	h2, err := o.Go(context.Background(), sleepStep("next", "a", time.Millisecond),
		time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Err != nil {
		t.Errorf("node unusable after panic: %v", rep2.Err)
	}
}

func TestGoValidation(t *testing.T) {
	o := orch(t, nil, nil, "a")
	if _, err := o.Go(context.Background(), nil, time.Now().Add(time.Second)); err == nil {
		t.Error("nil work accepted")
	}
	if _, err := o.Go(context.Background(), sleepStep("s", "nope", time.Millisecond),
		time.Now().Add(time.Second)); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := o.Go(context.Background(), sleepStep("s", "a", time.Millisecond),
		time.Now().Add(-time.Second)); !errors.Is(err, ErrPastDeadline) {
		t.Errorf("past deadline err = %v", err)
	}
	if _, err := o.Go(context.Background(), Sequence("empty"),
		time.Now().Add(time.Second)); !errors.Is(err, ErrEmptyWork) {
		t.Errorf("empty sequence err = %v", err)
	}
	if _, err := o.Go(context.Background(), Step("s", "a", -time.Second, func(context.Context) error { return nil }),
		time.Now().Add(time.Second)); !errors.Is(err, ErrNegativePex) {
		t.Errorf("negative pex err = %v", err)
	}
	if _, err := o.Go(context.Background(), Step("s", "", time.Millisecond, nil),
		time.Now().Add(time.Second)); !errors.Is(err, ErrBadStep) {
		t.Errorf("bad step err = %v", err)
	}
}

func TestAddNodeErrors(t *testing.T) {
	o := orch(t, nil, nil, "a")
	if _, err := o.AddNode("a"); !errors.Is(err, ErrDupNode) {
		t.Errorf("dup node err = %v", err)
	}
	if o.Node("a") == nil {
		t.Error("Node(a) = nil")
	}
	if o.Node("zzz") != nil {
		t.Error("Node(zzz) != nil")
	}
}

func TestCloseDropsQueuedWork(t *testing.T) {
	o := NewOrchestrator()
	if _, err := o.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	// Block the node, then queue a second task and close.
	block, err := o.Go(context.Background(), sleepStep("blocker", "a", 50*time.Millisecond),
		time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	queued, err := o.Go(context.Background(), sleepStep("queued", "a", time.Millisecond),
		time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	rep, err := queued.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil {
		t.Error("queued task should fail when the orchestrator closes")
	}
	if _, err := block.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Go(context.Background(), sleepStep("late", "a", time.Millisecond),
		time.Now().Add(time.Second)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close err = %v", err)
	}
	o.Close() // idempotent
}

func TestManyConcurrentTasks(t *testing.T) {
	o := orch(t, sda.EQF{}, sda.MustDiv(1), "a", "b", "c")
	var handles []*Handle
	for i := 0; i < 50; i++ {
		w := Sequence("seq",
			sleepStep("s1", "a", time.Millisecond),
			Group("g",
				sleepStep("p1", "b", time.Millisecond),
				sleepStep("p2", "c", time.Millisecond),
			),
		)
		h, err := o.Go(context.Background(), w, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rep, err := h.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if rep.Err != nil {
			t.Fatalf("task %d failed: %v", i, rep.Err)
		}
	}
}

func TestWorkIntrospection(t *testing.T) {
	w := Sequence("root",
		sleepStep("a", "n1", 10*time.Millisecond),
		Group("g",
			sleepStep("b", "n2", 20*time.Millisecond),
			sleepStep("c", "n3", 30*time.Millisecond),
		),
	)
	if w.IsStep() {
		t.Error("sequence is not a step")
	}
	if got := len(w.Steps()); got != 3 {
		t.Errorf("steps = %d, want 3", got)
	}
	// predicted: 10 + max(20, 30) = 40ms.
	if got := w.predicted(); got != 40*time.Millisecond {
		t.Errorf("predicted = %v, want 40ms", got)
	}
	if w.Name() != "root" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestNodeStats(t *testing.T) {
	o := orch(t, nil, nil, "a")
	h, err := o.Go(context.Background(), sleepStep("s", "a", time.Millisecond),
		time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := o.Node("a")
	if n.Served() != 1 {
		t.Errorf("served = %d, want 1", n.Served())
	}
	if n.QueueLen() != 0 {
		t.Errorf("queue = %d, want 0", n.QueueLen())
	}
	if n.Name() != "a" {
		t.Errorf("name = %q", n.Name())
	}
}

func TestDeadlineAbortDropsQueuedSteps(t *testing.T) {
	o := NewOrchestrator(WithDeadlineAbort())
	if _, err := o.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	// Block the node far past the victim's deadline with an independent
	// task, then submit a victim whose step never gets to run.
	blocker, err := o.Go(context.Background(),
		sleepStep("blocker", "a", 80*time.Millisecond), time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	victim, err := o.Go(context.Background(),
		sleepStep("victim", "a", time.Millisecond), time.Now().Add(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := victim.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Missed || !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Errorf("victim report = missed=%v err=%v, want deadline-exceeded abort",
			rep.Missed, rep.Err)
	}
	// The victim must resolve well before the blocker finishes: that is
	// the point of withdrawing queued work at the deadline.
	select {
	case <-blocker.Done():
		t.Error("blocker finished before the victim resolved — abort did not fire early")
	default:
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if o.Node("a").Dropped() == 0 {
		t.Error("no job was dropped at the node")
	}
}

func TestDeadlineAbortStopsSerialPipeline(t *testing.T) {
	o := NewOrchestrator(WithDeadlineAbort())
	if _, err := o.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	ranSecond := false
	w := Sequence("seq",
		Step("slow", "a", time.Millisecond, func(ctx context.Context) error {
			select {
			case <-time.After(60 * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}),
		Step("next", "a", time.Millisecond, func(ctx context.Context) error {
			ranSecond = true
			return nil
		}),
	)
	h, err := o.Go(context.Background(), w, time.Now().Add(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ranSecond {
		t.Error("stage after the deadline abort must not run")
	}
	if !rep.Missed {
		t.Error("aborted task must be missed")
	}
}

func TestDeadlineAbortTimerCancelledOnSuccess(t *testing.T) {
	o := NewOrchestrator(WithDeadlineAbort())
	if _, err := o.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	h, err := o.Go(context.Background(),
		sleepStep("quick", "a", time.Millisecond), time.Now().Add(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missed || rep.Err != nil {
		t.Errorf("quick task under deadline abort = %+v, want clean hit", rep)
	}
	// Give a stale timer a chance to fire wrongly; the report must not
	// change.
	time.Sleep(600 * time.Millisecond)
	rep2, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Missed || rep2.Err != nil {
		t.Errorf("report mutated after resolution: %+v", rep2)
	}
}

func TestOrchestratorStats(t *testing.T) {
	o := orch(t, nil, nil, "a")
	hit, err := o.Go(context.Background(), sleepStep("hit", "a", time.Millisecond),
		time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hit.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	miss, err := o.Go(context.Background(), sleepStep("miss", "a", 30*time.Millisecond),
		time.Now().Add(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := miss.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Submitted != 2 || st.Resolved != 2 {
		t.Errorf("stats = %+v, want 2 submitted and resolved", st)
	}
	if st.Missed != 1 {
		t.Errorf("missed = %d, want 1", st.Missed)
	}
	if got := st.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}
