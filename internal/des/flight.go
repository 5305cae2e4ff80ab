package des

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// depthBuckets is the number of log2 calendar-depth buckets; bucket i
// counts fires observed with live calendar size in [2^(i-1), 2^i).
const depthBuckets = 32

// Flight is the DES kernel's flight recorder: an opt-in, allocation-free
// tap that measures what the calendar actually does during a run — the
// event-type mix, the record pool's behaviour and the calendar depth.
//
// A Flight is attached to an Engine with AttachFlight before the run and
// read afterwards. All state is fixed-size, so the per-event recording
// path performs no allocation; when no Flight is attached the engine pays
// one nil check per schedule/fire.
//
// Every field is a sum, a count or a max, so Merge is exact and
// order-independent: per-replication recorders merged in any order
// produce bit-identical aggregates.
type Flight struct {
	// Event mix.
	scheduled  uint64 // At/AtCall/ScheduleBatch entries accepted
	fired      uint64
	cancelled  uint64
	batched    uint64 // entries that arrived via ScheduleBatch
	closures   uint64 // plain func() events (At / batch Fn)
	calls      uint64 // func(any) events (AtCall / batch Call)
	poolHits   uint64 // records served from the free list
	poolGrowth uint64 // records that grew the pool

	// Calendar depth, sampled at every fire (live events pre-fire).
	depthSum  uint64
	depthMax  uint64
	depthHist [depthBuckets]uint64
}

// NewFlight returns an empty flight recorder.
func NewFlight() *Flight { return new(Flight) }

// AttachFlight starts recording engine activity into f (nil detaches).
// Attaching is purely observational: the event order, the clock and every
// model outcome are bit-identical with and without a recorder.
func (e *Engine) AttachFlight(f *Flight) { e.flight = f }

// Flight returns the attached recorder (nil when detached).
func (e *Engine) Flight() *Flight { return e.flight }

// onFire records one fired event; live is the calendar population before
// the fire.
func (f *Flight) onFire(live int) {
	f.fired++
	d := uint64(live)
	f.depthSum += d
	if d > f.depthMax {
		f.depthMax = d
	}
	b := bits.Len64(d)
	if b >= depthBuckets {
		b = depthBuckets - 1
	}
	f.depthHist[b]++
}

// Merge folds another recorder into f. Every statistic is a sum or a
// max, so the result is independent of merge order — per-replication
// recorders fold into bit-identical aggregates at any worker count. The
// error is always nil.
func (f *Flight) Merge(o *Flight) error {
	if o == nil {
		return nil
	}
	f.scheduled += o.scheduled
	f.fired += o.fired
	f.cancelled += o.cancelled
	f.batched += o.batched
	f.closures += o.closures
	f.calls += o.calls
	f.poolHits += o.poolHits
	f.poolGrowth += o.poolGrowth
	f.depthSum += o.depthSum
	if o.depthMax > f.depthMax {
		f.depthMax = o.depthMax
	}
	for i := range f.depthHist {
		f.depthHist[i] += o.depthHist[i]
	}
	return nil
}

// MergeFlights folds per-replication recorders, skipping nil ones, into
// a new recorder, bit-identical in any order.
func MergeFlights(flights []*Flight) *Flight {
	agg := NewFlight()
	for _, f := range flights {
		agg.Merge(f)
	}
	return agg
}

// Scheduled returns the number of accepted schedules.
func (f *Flight) Scheduled() uint64 { return f.scheduled }

// Fired returns the number of fired events.
func (f *Flight) Fired() uint64 { return f.fired }

// Cancelled returns the number of cancelled events.
func (f *Flight) Cancelled() uint64 { return f.cancelled }

// PoolHitRate returns the fraction of record allocations served from the
// free list (1 = steady state, no pool growth).
func (f *Flight) PoolHitRate() float64 {
	total := f.poolHits + f.poolGrowth
	if total == 0 {
		return 0
	}
	return float64(f.poolHits) / float64(total)
}

// WritePrometheus writes the recorder's statistics in the Prometheus text
// exposition format under the sda_flight_* namespace.
func (f *Flight) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	line("# HELP sda_flight_events_total kernel events by disposition\n")
	line("# TYPE sda_flight_events_total counter\n")
	line("sda_flight_events_total{kind=\"scheduled\"} %d\n", f.scheduled)
	line("sda_flight_events_total{kind=\"fired\"} %d\n", f.fired)
	line("sda_flight_events_total{kind=\"cancelled\"} %d\n", f.cancelled)
	line("sda_flight_events_total{kind=\"batched\"} %d\n", f.batched)
	line("# HELP sda_flight_callbacks_total scheduled events by callback flavour\n")
	line("# TYPE sda_flight_callbacks_total counter\n")
	line("sda_flight_callbacks_total{kind=\"closure\"} %d\n", f.closures)
	line("sda_flight_callbacks_total{kind=\"call\"} %d\n", f.calls)
	line("# HELP sda_flight_pool_total event-record allocations by source\n")
	line("# TYPE sda_flight_pool_total counter\n")
	line("sda_flight_pool_total{kind=\"hit\"} %d\n", f.poolHits)
	line("sda_flight_pool_total{kind=\"growth\"} %d\n", f.poolGrowth)

	line("# HELP sda_flight_calendar_depth_max max live calendar events observed at a fire\n")
	line("# TYPE sda_flight_calendar_depth_max gauge\n")
	line("sda_flight_calendar_depth_max %d\n", f.depthMax)
	line("# HELP sda_flight_calendar_depth_sum sum of live calendar events over all fires\n")
	line("# TYPE sda_flight_calendar_depth_sum counter\n")
	line("sda_flight_calendar_depth_sum %d\n", f.depthSum)

	_, err := io.WriteString(w, b.String())
	return err
}

// pct renders n/total as a percentage.
func pct(n, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(total))
}

// Report renders the flight recorder as a markdown document: the event
// mix, the record pool and the calendar-depth histogram.
func (f *Flight) Report(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Flight report — %s\n\n", title)

	fmt.Fprintf(&b, "### Event mix\n\n")
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| events scheduled | %d |\n", f.scheduled)
	fmt.Fprintf(&b, "| events fired | %d |\n", f.fired)
	fmt.Fprintf(&b, "| events cancelled | %d |\n", f.cancelled)
	fmt.Fprintf(&b, "| batch-scheduled entries | %d (%s of scheduled) |\n", f.batched, pct(f.batched, f.scheduled))
	fmt.Fprintf(&b, "| closure callbacks (`At`) | %d |\n", f.closures)
	fmt.Fprintf(&b, "| context callbacks (`AtCall`) | %d |\n", f.calls)
	fmt.Fprintf(&b, "| record pool hits | %d (%s) |\n", f.poolHits, pct(f.poolHits, f.poolHits+f.poolGrowth))
	fmt.Fprintf(&b, "| record pool growth | %d |\n\n", f.poolGrowth)

	fmt.Fprintf(&b, "### Calendar depth\n\n")
	mean := 0.0
	if f.fired > 0 {
		mean = float64(f.depthSum) / float64(f.fired)
	}
	fmt.Fprintf(&b, "Mean live events at fire: %.6g; max: %d.\n\n", mean, f.depthMax)
	fmt.Fprintf(&b, "| live events | fires | share |\n|---|---|---|\n")
	for i, c := range f.depthHist {
		if c == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(0)
		if i > 0 {
			lo = uint64(1) << (i - 1)
			hi = uint64(1)<<i - 1
		}
		fmt.Fprintf(&b, "| %d–%d | %d | %s |\n", lo, hi, c, pct(c, f.fired))
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}
