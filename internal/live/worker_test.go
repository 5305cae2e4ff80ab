package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serial watches one node: it reports whether two of the step functions
// it wraps ever ran at once.
type serial struct {
	active  atomic.Int32
	overlap atomic.Bool
}

// step returns a step at node that runs body (ignoring the task context)
// and records overlap with the other steps wrapped by s.
func (s *serial) step(name, node string, body func()) *Work {
	return Step(name, node, time.Millisecond, func(context.Context) error {
		if s.active.Add(1) > 1 {
			s.overlap.Store(true)
		}
		defer s.active.Add(-1)
		body()
		return nil
	})
}

// gate returns a channel and a function that closes it. The test's
// cleanup closes it too, so a failing test leaves no step blocked.
func gate(t *testing.T) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	open := sync.OnceFunc(func() { close(ch) })
	t.Cleanup(open)
	return ch, open
}

func waitReport(t *testing.T, h *Handle) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestNoOverlapAfterFailFast fails a task while its step at node a is
// still running and another task's step is queued there. The withdrawn
// step's function keeps running, so the queued step must wait for it.
func TestNoOverlapAfterFailFast(t *testing.T) {
	o := orch(t, nil, nil, "a", "b")
	var a serial
	started := make(chan struct{})
	fail, failNow := gate(t)
	release, releaseNow := gate(t)
	victim, err := o.Go(context.Background(), Group("victim",
		a.step("slow", "a", func() { close(started); <-release }),
		Step("bad", "b", time.Millisecond, func(context.Context) error {
			<-fail
			return errors.New("boom")
		}),
	), time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ranNext := false
	next, err := o.Go(context.Background(), a.step("next", "a", func() { ranNext = true }),
		time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	failNow()
	// Give a wrongly freed node time to start the queued step.
	time.Sleep(30 * time.Millisecond)
	if q := o.Node("a").QueueLen(); q != 1 {
		t.Errorf("queue at a = %d while the withdrawn step runs, want 1", q)
	}
	releaseNow()
	if rep := waitReport(t, victim); rep.Err == nil {
		t.Error("victim should fail")
	}
	if rep := waitReport(t, next); rep.Err != nil || !ranNext {
		t.Errorf("next: err=%v ran=%v, want a clean run", rep.Err, ranNext)
	}
	if a.overlap.Load() {
		t.Error("two step functions ran at once on node a")
	}
}

// TestNoOverlapAfterDeadlineAbort is the same for a deadline abort: the
// victim's step ignores its expired context and keeps node a busy.
func TestNoOverlapAfterDeadlineAbort(t *testing.T) {
	o := NewOrchestrator(WithDeadlineAbort())
	if _, err := o.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	var a serial
	started := make(chan struct{})
	release, releaseNow := gate(t)
	victim, err := o.Go(context.Background(),
		a.step("slow", "a", func() { close(started); <-release }), time.Now().Add(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ranNext := false
	next, err := o.Go(context.Background(), a.step("next", "a", func() { ranNext = true }),
		time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // the victim's deadline passes
	releaseNow()
	if rep := waitReport(t, victim); !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Errorf("victim err = %v, want deadline exceeded", rep.Err)
	}
	if rep := waitReport(t, next); rep.Err != nil || !ranNext {
		t.Errorf("next: err=%v ran=%v, want a clean run", rep.Err, ranNext)
	}
	if a.overlap.Load() {
		t.Error("two step functions ran at once on node a")
	}
}

// TestWorkerNodeCountersAndClose pins the node counters and what closing
// a node does: Served counts every step function that returned, failed
// or not; Dropped counts queued steps withdrawn before running; Close
// fails queued steps at once with ErrNodeClosed and waits for the
// running one.
func TestWorkerNodeCountersAndClose(t *testing.T) {
	o := orch(t, nil, nil, "a")
	ok := Step("ok", "a", time.Millisecond, func(context.Context) error { return nil })
	bad := Step("bad", "a", time.Millisecond, func(context.Context) error { return errors.New("boom") })
	for _, w := range []*Work{ok, bad} {
		h, err := o.Go(context.Background(), w, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		waitReport(t, h)
	}
	w := o.Node("a")
	if s, d := w.Served(), w.Dropped(); s != 2 || d != 0 {
		t.Errorf("after a success and a failure: served=%d dropped=%d, want 2, 0", s, d)
	}

	started := make(chan struct{})
	release, releaseNow := gate(t)
	blocker, err := o.Go(context.Background(), Step("blocker", "a", time.Millisecond,
		func(context.Context) error { close(started); <-release; return nil }),
		time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := o.Go(context.Background(), sleepStep("queued", "a", time.Millisecond),
		time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { w.Close(); close(closed) }()
	// The queued step fails while the blocker still runs.
	rep := waitReport(t, queued)
	if !errors.Is(rep.Err, ErrNodeClosed) || len(rep.Steps) != 1 || rep.Steps[0].Err != ErrNodeClosed {
		t.Errorf("queued report err=%v steps=%+v, want ErrNodeClosed", rep.Err, rep.Steps)
	}
	if !rep.Steps[0].Finish.IsZero() {
		t.Error("a step that never ran has a finish time")
	}
	select {
	case <-closed:
		t.Error("Close returned while a step function was running")
	default:
	}
	releaseNow()
	<-closed
	if rep := waitReport(t, blocker); rep.Err != nil {
		t.Errorf("blocker err = %v", rep.Err)
	}
	if s, d := w.Served(), w.Dropped(); s != 3 || d != 1 {
		t.Errorf("after close: served=%d dropped=%d, want 3, 1", s, d)
	}

	// A step released to a closed node fails without running.
	late, err := o.Go(context.Background(), sleepStep("late", "a", time.Millisecond),
		time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep := waitReport(t, late); !errors.Is(rep.Err, ErrNodeClosed) {
		t.Errorf("late err = %v, want ErrNodeClosed", rep.Err)
	}
	if s := w.Served(); s != 3 {
		t.Errorf("served = %d after a step at a closed node, want 3", s)
	}
}
