package des

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// runFlightModel drives a tiny model: a chain of events that each arm a
// successor and a side event in one ScheduleBatch, plus one timer that
// gets cancelled.
func runFlightModel(eng *Engine) {
	hops := 0
	var tick func()
	tick = func() {
		if hops >= 4 {
			return
		}
		hops++
		now := eng.Now()
		if err := eng.ScheduleBatch([]BatchEntry{
			{At: now.Add(1), Fn: tick},
			{At: now.Add(0.25), Fn: func() {}},
		}); err != nil {
			panic(err)
		}
	}
	if _, err := eng.After(1, tick); err != nil {
		panic(err)
	}
	ev, err := eng.After(100, func() {})
	if err != nil {
		panic(err)
	}
	eng.Cancel(ev)
	eng.Run()
}

func TestFlightRecordsEventMix(t *testing.T) {
	eng := New()
	f := NewFlight()
	eng.AttachFlight(f)
	runFlightModel(eng)

	// 1 initial + 4 hops × 2 batched entries + 1 cancelled timer.
	if got, want := f.Scheduled(), uint64(10); got != want {
		t.Fatalf("scheduled = %d, want %d", got, want)
	}
	if got, want := f.Fired(), uint64(9); got != want {
		t.Fatalf("fired = %d, want %d", got, want)
	}
	if got, want := f.Cancelled(), uint64(1); got != want {
		t.Fatalf("cancelled = %d, want %d", got, want)
	}
	if got, want := f.batched, uint64(8); got != want {
		t.Fatalf("batched = %d, want %d", got, want)
	}
	if got, want := f.closures, uint64(10); got != want || f.calls != 0 {
		t.Fatalf("callbacks = (%d closures, %d calls), want (%d, 0)", got, f.calls, want)
	}
	if f.PoolHitRate() <= 0 {
		t.Fatalf("pool hit rate = %v, want > 0 (chain reuses records)", f.PoolHitRate())
	}
}

func TestFlightMergeOrderIndependent(t *testing.T) {
	mk := func(salt simtime.Duration) *Flight {
		eng := New()
		f := NewFlight()
		eng.AttachFlight(f)
		if _, err := eng.After(salt, func() {
			if _, err := eng.After(salt/2, func() {}); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return f
	}
	ab, ba := NewFlight(), NewFlight()
	a1, b1 := mk(1), mk(3)
	a2, b2 := mk(1), mk(3)
	if err := ab.Merge(a1); err != nil {
		t.Fatal(err)
	}
	if err := ab.Merge(b1); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(b2); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(a2); err != nil {
		t.Fatal(err)
	}
	var w1, w2 strings.Builder
	if err := ab.WritePrometheus(&w1); err != nil {
		t.Fatal(err)
	}
	if err := ba.WritePrometheus(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Fatalf("merge is order-dependent:\n%s\nvs\n%s", w1.String(), w2.String())
	}
	if ab.Report("x") != ba.Report("x") {
		t.Fatal("merged reports differ by merge order")
	}
}

// TestFlightScheduleFireAllocFree proves the recording path allocates
// nothing: steady-state schedule/fire cycles stay at zero allocations
// with a recorder attached, exactly as without one.
func TestFlightScheduleFireAllocFree(t *testing.T) {
	for _, attached := range []bool{false, true} {
		eng := New()
		if attached {
			eng.AttachFlight(NewFlight())
		}
		ctx := new(int)
		var hop func(any)
		hop = func(x any) {
			if _, err := eng.AfterCall(1, hop, x); err != nil {
				panic(err)
			}
		}
		if _, err := eng.AfterCall(1, hop, ctx); err != nil {
			t.Fatal(err)
		}
		// Warm the pool and the calendar.
		for i := 0; i < 64; i++ {
			eng.Step()
		}
		allocs := testing.AllocsPerRun(200, func() {
			eng.Step()
		})
		if allocs != 0 {
			t.Fatalf("attached=%v: %v allocs per schedule/fire cycle, want 0", attached, allocs)
		}
	}
}

// TestFlightNonPerturbing pins the observational contract: the event
// sequence is bit-identical with and without a recorder attached.
func TestFlightNonPerturbing(t *testing.T) {
	trace := func(attach bool) []simtime.Time {
		eng := New()
		if attach {
			eng.AttachFlight(NewFlight())
		}
		var out []simtime.Time
		runFlightModelTraced(eng, &out)
		return out
	}
	a, b := trace(false), trace(true)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d fired at %v vs %v", i, a[i], b[i])
		}
	}
}

func runFlightModelTraced(eng *Engine, out *[]simtime.Time) {
	hops := 0
	var tick func()
	tick = func() {
		*out = append(*out, eng.Now())
		if hops >= 6 {
			return
		}
		hops++
		if _, err := eng.After(simtime.Duration(0.5+float64(hops)), tick); err != nil {
			panic(err)
		}
	}
	if _, err := eng.After(1, tick); err != nil {
		panic(err)
	}
	eng.Run()
}

func TestFlightReportAndPrometheus(t *testing.T) {
	eng := New()
	f := NewFlight()
	eng.AttachFlight(f)
	runFlightModel(eng)

	rpt := f.Report("unit")
	for _, want := range []string{
		"## Flight report — unit",
		"| events scheduled | 10 |",
		"| batch-scheduled entries | 8 (80.00% of scheduled) |",
		"Mean live events at fire: 1.44444; max: 2.",
		"| 2–3 | 4 | 44.44% |",
	} {
		if !strings.Contains(rpt, want) {
			t.Fatalf("report missing %q:\n%s", want, rpt)
		}
	}
	var prom strings.Builder
	if err := f.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := `sda_flight_events_total{kind="scheduled"} 10`; !strings.Contains(prom.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, prom.String())
	}
}

// TestFlightExpositionLines pins the exposition lines that the benchmark
// module reads back by exact series name (des.batched, des.depth_max and
// des.depth_mean): a renamed series would silently read as 0 there.
func TestFlightExpositionLines(t *testing.T) {
	eng := New()
	f := NewFlight()
	eng.AttachFlight(f)
	runFlightModel(eng)
	var prom strings.Builder
	if err := f.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(prom.String(), "\n")
	// Five chain fires see one live event (themselves) and four side
	// events see two (themselves and the next chain hop): 5 + 8 = 13.
	for _, want := range []string{
		`sda_flight_events_total{kind="batched"} 8`,
		"sda_flight_calendar_depth_max 2",
		"sda_flight_calendar_depth_sum 13",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("exposition lacks the line %q:\n%s", want, prom.String())
		}
	}
	for _, gone := range []string{
		"sda_flight_schedule_locality_total",
		"sda_flight_cross_lead_time",
		"sda_flight_node_min_spacing",
	} {
		if strings.Contains(prom.String(), gone) {
			t.Errorf("exposition still carries %s:\n%s", gone, prom.String())
		}
	}
}
