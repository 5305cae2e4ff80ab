package node

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
)

func TestSetRateSlowsService(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	n.SetRate(0.5)
	var doneAt simtime.Time
	it := mkItem(t, "a", 100, 4)
	it.Hooks = onDone(func(_ *Item, at simtime.Time) { doneAt = at })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// 4 work units at rate 0.5 take 8 time units.
	if doneAt != 8 {
		t.Errorf("done at %v, want 8", doneAt)
	}
}

func TestSetRateMidServiceKeepsCompletedWork(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	it := mkItem(t, "a", 100, 4)
	var doneAt simtime.Time
	it.Hooks = onDone(func(_ *Item, at simtime.Time) { doneAt = at })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	// Degrade to half speed at t=2: 2 of 4 units done, the remaining 2
	// take 4 more time units -> finish at 6.
	if _, err := eng.At(2, func() { n.SetRate(0.5) }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt != 6 {
		t.Errorf("done at %v, want 6", doneAt)
	}
	if got := n.Rate(); got != 0.5 {
		t.Errorf("rate = %v, want 0.5", got)
	}
}

func TestSetRateRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetRate(0) did not panic")
		}
	}()
	eng := des.New()
	New(0, eng).SetRate(0)
}

func TestCrashLosesStretchAndRestartResumes(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	var doneAt simtime.Time
	it := mkItem(t, "a", 100, 4)
	it.Hooks = onDone(func(_ *Item, at simtime.Time) { doneAt = at })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	// Crash at t=3 (3 of 4 units done, all lost), restart at t=5; the
	// item then runs its full 4 units again -> finish at 9.
	if _, err := eng.At(3, func() { n.Crash() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(5, func() { n.Restart() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt != 9 {
		t.Errorf("done at %v, want 9", doneAt)
	}
	if n.Down() {
		t.Error("node still down after restart")
	}
	if n.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1", n.Crashes())
	}
	// The lost stretch counts as busy occupancy: 3 (lost) + 4 (redo).
	if got := n.BusyTime(); got != 7 {
		t.Errorf("busy time = %v, want 7", got)
	}
}

func TestCrashHoldsQueueUntilRestart(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	n.Crash()
	var doneAt simtime.Time
	it := mkItem(t, "a", 100, 1)
	it.Hooks = onDone(func(_ *Item, at simtime.Time) { doneAt = at })
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if it.State() != StateQueued {
		t.Fatalf("state = %v while down, want queued", it.State())
	}
	if _, err := eng.At(10, func() { n.Restart() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt != 11 {
		t.Errorf("done at %v, want 11", doneAt)
	}
}

func TestCrashAndRestartAreIdempotent(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	n.Restart() // restart while up: no-op
	n.Crash()
	n.Crash() // second crash: no-op
	if n.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1", n.Crashes())
	}
	n.Restart()
	if n.Down() {
		t.Error("node down after restart")
	}
}

func TestCrashMultiServer(t *testing.T) {
	eng := des.New()
	n := New(0, eng, WithServers(2))
	done := 0
	for i, ex := range []simtime.Duration{4, 6} {
		it := mkItem(t, string(rune('a'+i)), 100, ex)
		it.Hooks = onDone(func(_ *Item, _ simtime.Time) { done++ })
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.At(2, func() { n.Crash() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(3, func() { n.Restart() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done != 2 {
		t.Errorf("completed %d items, want 2", done)
	}
	// Both restarted stretches redo full demand: finish at 3+4 and 3+6.
	if now := eng.Now(); now != 9 {
		t.Errorf("drained at %v, want 9", now)
	}
}

func TestRateUtilizationStaysBounded(t *testing.T) {
	eng := des.New()
	n := New(0, eng)
	n.SetRate(0.25)
	for i := 0; i < 5; i++ {
		if err := n.Submit(mkItem(t, "", 100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if u := n.Utilization(); u < 0.99 || u > 1.0+1e-9 || math.IsNaN(u) {
		t.Errorf("utilization = %v, want ~1", u)
	}
}
