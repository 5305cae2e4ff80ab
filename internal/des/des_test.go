package des

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/simtime"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []simtime.Time
	for _, at := range []simtime.Time{5, 1, 3, 2, 4} {
		at := at
		if _, err := e.At(at, func() { got = append(got, at) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	want := []simtime.Time{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.At(7, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var seen simtime.Time
	if _, err := e.At(3.5, func() { seen = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if seen != 3.5 {
		t.Errorf("Now inside event = %v, want 3.5", seen)
	}
	if e.Now() != 3.5 {
		t.Errorf("final Now = %v, want 3.5", e.Now())
	}
}

func TestAfter(t *testing.T) {
	e := New()
	fired := false
	if _, err := e.At(2, func() {
		if _, err := e.After(3, func() { fired = true }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !fired {
		t.Error("chained event did not fire")
	}
	if e.Now() != 5 {
		t.Errorf("final Now = %v, want 5", e.Now())
	}
}

func TestPastEventRejected(t *testing.T) {
	e := New()
	if _, err := e.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.At(5, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("err = %v, want ErrPastEvent", err)
	}
	if _, err := e.After(-1, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("negative delay err = %v, want ErrPastEvent", err)
	}
}

// TestNaNInstantRejected: every entry point refuses a NaN instant or
// delay with ErrPastEvent and schedules nothing, a NaN batch entry
// rejects the whole batch, and +Inf stays schedulable. Events at 1, 2
// and 3 then fire in order and leave the clock at 3, not NaN.
func TestNaNInstantRejected(t *testing.T) {
	nan := simtime.Time(math.NaN())
	cases := []struct {
		name     string
		schedule func(e *Engine, at simtime.Time, fn func()) error
	}{
		{"At", func(e *Engine, at simtime.Time, fn func()) error { _, err := e.At(at, fn); return err }},
		{"AtCall", func(e *Engine, at simtime.Time, fn func()) error {
			_, err := e.AtCall(at, func(any) { fn() }, nil)
			return err
		}},
		{"After", func(e *Engine, at simtime.Time, fn func()) error {
			_, err := e.After(at.Sub(e.Now()), fn)
			return err
		}},
		{"AfterCall", func(e *Engine, at simtime.Time, fn func()) error {
			_, err := e.AfterCall(at.Sub(e.Now()), func(any) { fn() }, nil)
			return err
		}},
		{"ScheduleBatch", func(e *Engine, at simtime.Time, fn func()) error {
			return e.ScheduleBatch([]BatchEntry{{At: e.Now(), Fn: func() {}}, {At: at, Fn: fn}})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			var fired []simtime.Time
			for _, at := range []simtime.Time{1, 2, 3} {
				if err := c.schedule(e, at, func() { fired = append(fired, e.Now()) }); err != nil {
					t.Fatal(err)
				}
			}
			before := e.Pending()
			if err := c.schedule(e, nan, func() { fired = append(fired, e.Now()) }); !errors.Is(err, ErrPastEvent) {
				t.Fatalf("NaN instant: err = %v, want ErrPastEvent", err)
			}
			if e.Pending() != before {
				t.Fatalf("a rejected NaN schedule left %d events, want %d", e.Pending(), before)
			}
			if err := c.schedule(e, simtime.Time(math.Inf(1)), func() {}); err != nil {
				t.Fatalf("+Inf instant rejected: %v", err)
			}
			e.RunUntil(3)
			if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 || e.Now() != 3 {
				t.Fatalf("fired at %v, clock %v; want [1 2 3] and 3", fired, e.Now())
			}
			if err := c.schedule(e, 2, func() {}); !errors.Is(err, ErrPastEvent) {
				t.Fatalf("past instant after the run: err = %v, want ErrPastEvent", err)
			}
		})
	}
}

func TestSameInstantAllowed(t *testing.T) {
	e := New()
	count := 0
	if _, err := e.At(4, func() {
		// Scheduling at the current instant must be legal: completions and
		// arrivals can coincide.
		if _, err := e.At(e.Now(), func() { count++ }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev, err := e.At(5, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Pending() {
		t.Error("event should be pending before cancel")
	}
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for a pending event")
	}
	if ev.Pending() {
		t.Error("event still pending after cancel")
	}
	if !ev.Cancelled() {
		t.Error("event not marked cancelled")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Cancel(ev) {
		t.Error("double cancel should report false")
	}
	if e.Cancel(Event{}) {
		t.Error("cancel of the zero handle should report false")
	}
}

func TestCancelMiddleOfCalendar(t *testing.T) {
	e := New()
	var got []int
	var evs []Event
	for i := 0; i < 20; i++ {
		i := i
		ev, err := e.At(simtime.Time(i), func() { got = append(got, i) })
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// Cancel every third event, including ones deep in the heap.
	for i := 0; i < 20; i += 3 {
		e.Cancel(evs[i])
	}
	e.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Errorf("fired %d events, want 13", len(got))
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	ev, err := e.At(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Cancel(ev) {
		t.Error("cancel after fire should report false")
	}
	if ev.Cancelled() {
		t.Error("fired event should not be marked cancelled")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []simtime.Time
	for _, at := range []simtime.Time{1, 2, 3, 4, 5} {
		at := at
		if _, err := e.At(at, func() { got = append(got, at) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Errorf("fired %d events by horizon 3, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want horizon 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(got) != 5 {
		t.Errorf("fired %d events total, want 5", len(got))
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	e := New()
	fired := false
	if _, err := e.At(3, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(3)
	if !fired {
		t.Error("event exactly at the horizon should fire")
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty calendar should report false")
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		if _, err := e.At(simtime.Time(i), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", e.Fired())
	}
}

// TestHeapStress exercises the calendar with random scheduling and
// cancellation, checking the global fire order property.
func TestHeapStress(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e := New()
	var fired []float64
	var pending []Event
	for i := 0; i < 5000; i++ {
		at := simtime.Time(r.Float64() * 1000)
		ev, err := e.At(at, func() { fired = append(fired, float64(at)) })
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, ev)
		if r.Intn(4) == 0 && len(pending) > 0 {
			idx := r.Intn(len(pending))
			e.Cancel(pending[idx])
		}
	}
	e.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Error("events fired out of order under stress")
	}
	if len(fired) == 0 {
		t.Error("no events fired")
	}
}

// TestHandleRecycleSafety: once an event's record has been recycled for a
// newer event, every operation through the stale handle must be a safe
// no-op — in particular a stale Cancel must never kill the new event.
func TestHandleRecycleSafety(t *testing.T) {
	e := New()
	firstFired := false
	first, err := e.At(1, func() { firstFired = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// Cancel after fire, before the record is recycled.
	if e.Cancel(first) {
		t.Error("cancel after fire should report false")
	}

	// The pool has exactly one record, so this schedule reuses it.
	secondFired := false
	second, err := e.At(2, func() { secondFired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !second.Pending() {
		t.Fatal("second event should be pending")
	}
	if first.Pending() {
		t.Error("stale handle reports pending after recycle")
	}
	if first.Cancelled() {
		t.Error("stale handle reports cancelled after recycle")
	}
	if e.Cancel(first) {
		t.Error("stale cancel must be a no-op")
	}
	if !second.Pending() {
		t.Fatal("stale cancel killed the recycled record's new event")
	}
	e.Run()
	if !secondFired {
		t.Error("second event did not fire after stale cancel attempt")
	}
}

// TestDoubleCancelAcrossRecycle: double-cancel is a no-op both before and
// after the tombstoned record is reclaimed and reused.
func TestDoubleCancelAcrossRecycle(t *testing.T) {
	e := New()
	ev, err := e.At(5, func() { t.Error("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(ev) {
		t.Fatal("first cancel should succeed")
	}
	if e.Cancel(ev) {
		t.Error("second cancel (tombstoned, not yet reclaimed) should report false")
	}
	e.Run() // reclaims the tombstone
	if e.Cancel(ev) {
		t.Error("cancel after reclaim should report false")
	}
	// Reuse the record; the stale handle must stay inert.
	if _, err := e.At(9, func() {}); err != nil {
		t.Fatal(err)
	}
	if e.Cancel(ev) {
		t.Error("cancel through a stale handle cancelled a recycled event")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

// TestCancelHeavyChurnAllocFree: the documented steady-state property —
// schedule/cancel/fire cycles recycle records instead of allocating.
func TestCancelHeavyChurnAllocFree(t *testing.T) {
	e := New()
	// Warm the pool and the heap capacity.
	warm := make([]Event, 0, 64)
	for i := 0; i < 64; i++ {
		ev, err := e.After(simtime.Duration(i+1), func() {})
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, ev)
	}
	for _, ev := range warm {
		e.Cancel(ev)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		ev, err := e.After(1, func() {})
		if err != nil {
			t.Fatal(err)
		}
		e.Cancel(ev)
		ev2, err := e.After(1, func() {})
		if err != nil {
			t.Fatal(err)
		}
		_ = ev2
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state churn allocates %v times per cycle, want 0", allocs)
	}
}

// TestDeterminism runs the same random model twice and requires identical
// traces.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []float64 {
		r := rand.New(rand.NewSource(seed))
		e := New()
		var out []float64
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth > 3 {
				return
			}
			d := simtime.Duration(r.Float64() * 10)
			if _, err := e.After(d, func() {
				out = append(out, float64(e.Now()))
				schedule(depth + 1)
			}); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 50; i++ {
			schedule(0)
		}
		e.Run()
		return out
	}
	a := trace(7)
	b := trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCalendarLenCountsTombstones checks the observability accessor: a
// cancelled event stays in the calendar as a tombstone until its slot
// surfaces, so CalendarLen exceeds Pending by the tombstone backlog.
func TestCalendarLenCountsTombstones(t *testing.T) {
	e := New()
	var evs []Event
	for i := 0; i < 8; i++ {
		ev, err := e.At(simtime.Time(i+1), func() {})
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if e.CalendarLen() != 8 || e.Pending() != 8 {
		t.Fatalf("calendar %d pending %d, want 8/8", e.CalendarLen(), e.Pending())
	}
	for _, ev := range evs[:5] {
		e.Cancel(ev)
	}
	if e.CalendarLen() != 8 {
		t.Errorf("calendar after cancel = %d, want 8 (tombstones linger)", e.CalendarLen())
	}
	if e.Pending() != 3 {
		t.Errorf("pending after cancel = %d, want 3", e.Pending())
	}
	e.Run()
	if e.CalendarLen() != 0 || e.Pending() != 0 {
		t.Errorf("after drain: calendar %d pending %d, want 0/0", e.CalendarLen(), e.Pending())
	}
}

// TestNext checks the next-event peek: it skips cancelled events, reports
// an empty calendar, and neither fires nor advances anything.
func TestNext(t *testing.T) {
	e := New()
	if _, ok := e.Next(); ok {
		t.Fatal("Next on an empty calendar reports an event")
	}
	fired := 0
	early, err := e.At(3, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(5, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if at, ok := e.Next(); !ok || at != 3 {
		t.Errorf("Next = %v, %v; want 3, true", at, ok)
	}
	e.Cancel(early)
	if at, ok := e.Next(); !ok || at != 5 {
		t.Errorf("Next after cancel = %v, %v; want 5, true", at, ok)
	}
	if fired != 0 || e.Now() != 0 || e.Pending() != 1 {
		t.Errorf("peek changed state: fired %d now %v pending %d", fired, e.Now(), e.Pending())
	}
	e.Run()
	if _, ok := e.Next(); ok || fired != 1 {
		t.Errorf("after drain: Next ok=%v fired=%d, want false, 1", ok, fired)
	}
}

// TestRecordSize pins the pooled event record at three pointer words
// (fn, ctx's two) plus 8 bytes for the generation and state: 32 bytes on
// 64-bit targets, 20 on 32-bit ones.
func TestRecordSize(t *testing.T) {
	want := 3*unsafe.Sizeof(uintptr(0)) + 8
	if got := unsafe.Sizeof(record{}); got != want {
		t.Fatalf("unsafe.Sizeof(record{}) = %d, want %d", got, want)
	}
}

// TestCalendarKeyEdges schedules instants at the ends of the calendar's
// ordering key, one by one and as one bulk ScheduleBatch, and checks the
// fire order and the clock: −0 and +0 tie by schedule order, the
// smallest subnormal follows them and 1e300 precedes Never, Never
// (the largest finite instant) and +Inf events fire last in schedule
// order, and Now reads exactly the instant fired, −0 included.
func TestCalendarKeyEdges(t *testing.T) {
	negZero := simtime.Time(math.Copysign(0, -1))
	inf := simtime.Time(math.Inf(1))
	sub := simtime.Time(math.SmallestNonzeroFloat64)
	ats := []simtime.Time{
		inf, simtime.Never, 0, negZero, 1e300, sub, inf, 1, negZero,
		simtime.Never, 0, sub, 1e300, 0.5, negZero, 0,
	}
	// Fire order by (instant, schedule order), as indexes into ats.
	want := []int{2, 3, 8, 10, 14, 15, 5, 11, 13, 7, 4, 12, 1, 9, 0, 6}
	schedules := []struct {
		name     string
		schedule func(e *Engine, fire func(int)) error
	}{
		{"At", func(e *Engine, fire func(int)) error {
			for i, at := range ats {
				if _, err := e.At(at, func() { fire(i) }); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ScheduleBatch", func(e *Engine, fire func(int)) error {
			entries := make([]BatchEntry, len(ats))
			for i, at := range ats {
				entries[i] = BatchEntry{At: at, Call: func(x any) { fire(x.(int)) }, Ctx: i}
			}
			return e.ScheduleBatch(entries)
		}},
	}
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			e := New()
			var got []int
			err := s.schedule(e, func(i int) {
				got = append(got, i)
				if now := e.Now(); math.Float64bits(float64(now)) != math.Float64bits(float64(ats[i])) {
					t.Errorf("event %d: Now() = %v (signbit %v), want %v (signbit %v)",
						i, now, math.Signbit(float64(now)), ats[i], math.Signbit(float64(ats[i])))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			if len(got) != len(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("fired %v, want %v", got, want)
				}
			}
		})
	}
}
