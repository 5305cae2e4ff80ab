// Package des implements the discrete-event simulation kernel on which the
// whole study runs.
//
// The original paper used the DeNet simulation language (Livny 1990), which
// is long unavailable; this package is the substitution documented in
// DESIGN.md. It provides the same facilities a DeNet model needs: a virtual
// clock, a time-ordered event calendar, cancellable events (timers), and a
// run loop. The kernel is strictly single-threaded and deterministic: two
// runs with the same seed and the same model produce identical event
// sequences, which the test suite relies on.
//
// Events scheduled for the same instant fire in scheduling order (FIFO
// tie-break via a monotonically increasing sequence number), so model logic
// never observes nondeterministic ordering.
//
// # Implementation
//
// The calendar is a specialized inline 4-ary min-heap of small value slots
// (time, sequence, record index) — no container/heap interface calls, no
// per-entry pointers. Slots compare as one 128-bit unsigned key (the
// instant's bits above the sequence number), and a sift picks the least
// of four children without a data-dependent branch. Event state lives in
// an engine-local pool of records recycled through a free list, so
// steady-state schedule/fire/cancel cycles perform no heap allocation.
// Cancel does not restructure the heap: it tombstones the record in O(1)
// and the dead slot is skipped (and its record recycled) when it reaches
// the top. Models with abort timers cancel far more often than they fire,
// which makes lazy deletion the cheaper trade on both sides.
//
// Firing an event does not pop its slot before the callback runs: the
// root is held as a hole while the callback runs, and the callback's first
// schedule fills the hole and sinks once, instead of a sift-down to pop
// followed by a sift-up to push. Later schedules in the same callback push
// as usual, and a callback that schedules nothing has its hole closed by
// an ordinary pop when it returns. While a callback runs, heap[0] may be a
// hole, and every reader treats it as absent: the entry points that look
// at the top (Step, Next, RunUntil, ScheduleBatch) close it first, and
// CalendarLen leaves it out. The pop sequence is fixed by the total
// (instant, sequence) order, so only the heap's internal layout differs
// from popping first.
//
// Because records are recycled, an Event handle is a value carrying a
// generation tag: any operation through a stale handle (after the event
// fired or was cancelled and its record reused) is a safe no-op.
package des

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/simtime"
)

// ErrPastEvent is returned when an event is scheduled before the current
// simulated instant, or at a NaN instant or after a NaN delay.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// Event is a by-value handle to a scheduled callback. The engine owns the
// underlying record; user code holds the handle only to Cancel the event or
// query its state. Handles are generation-tagged: once the event has fired
// or been cancelled and its record recycled for a new event, every method
// on the old handle degrades to a safe no-op — a stale handle can never
// cancel somebody else's event. The zero Event is a valid "no event"
// handle: Cancel reports false, Pending and Cancelled report false.
type Event struct {
	eng *Engine
	idx int32
	gen uint32
	at  simtime.Time
}

// Time returns the instant the event is (or was) scheduled for.
func (e Event) Time() simtime.Time { return e.at }

// rec resolves the handle to its live record, or nil when the handle is
// zero or stale (the record has been recycled for a newer event).
func (e Event) rec() *record {
	if e.eng == nil || e.idx < 0 || int(e.idx) >= len(e.eng.pool) {
		return nil
	}
	r := &e.eng.pool[e.idx]
	if r.gen != e.gen {
		return nil
	}
	return r
}

// Cancelled reports whether the event was cancelled before firing. After
// the record is recycled for a new event the handle is stale and Cancelled
// reports false.
func (e Event) Cancelled() bool {
	r := e.rec()
	return r != nil && r.state == stateCancelled
}

// Pending reports whether the event is still in the calendar.
func (e Event) Pending() bool {
	r := e.rec()
	return r != nil && r.state == statePending
}

// record states. A record is free (on the free list or never used),
// pending (scheduled, will fire), or cancelled (tombstoned in the
// calendar, recycled when its slot surfaces).
const (
	stateFree uint8 = iota
	statePending
	stateCancelled
)

// record holds the mutable state of one scheduled event. Records are
// pooled and recycled; gen disambiguates incarnations for stale handles.
// Every event is a function and its argument: AtCall stores them as
// given, which lets hot model code schedule a shared package-level
// function with a pointer argument instead of allocating a fresh closure
// per event, and At stores its closure as the argument of callClosure.
type record struct {
	fn    func(any)
	ctx   any
	gen   uint32
	state uint8
}

// callClosure fires a closure event: the closure rides in the record's
// ctx (a func value converts to any without allocating).
func callClosure(x any) { x.(func())() }

// slot is one calendar entry: the ordering key plus the record index. Keys
// are stored inline so heap sifts never chase record pointers.
type slot struct {
	at  simtime.Time
	seq uint64
	idx int32
}

// signBit is the sign bit of a float64's IEEE representation.
const signBit = 1 << 63

// timeKey is the high word of a slot's ordering key: the instant's IEEE
// bits with the sign cleared. past admits only +0 through +Inf and −0
// (it rejects NaN and everything before now ≥ 0), and over those
// instants the bits of a non-negative float64 grow with its value, while
// −0 folds onto +0 so the two still tie.
func timeKey(at simtime.Time) uint64 { return math.Float64bits(float64(at)) &^ signBit }

// keyLess is 1 when the 128-bit key (shi, slo) is below (thi, tlo) and 0
// otherwise: the borrow out of their subtraction.
func keyLess(shi, slo, thi, tlo uint64) uint64 {
	_, b := bits.Sub64(slo, tlo, 0)
	_, b = bits.Sub64(shi, thi, b)
	return b
}

// less is 1 when s orders strictly before t and 0 otherwise, comparing
// the keys (timeKey(at), seq). That is the (time, seq) order; seq is
// unique, so it is total and FIFO tie-break at equal instants is exact.
func less(s, t *slot) uint64 {
	return keyLess(timeKey(s.at), s.seq, timeKey(t.at), t.seq)
}

// Engine is the simulation kernel. Create one with New, schedule events,
// then drive it with Step, RunUntil or Run.
type Engine struct {
	now   simtime.Time
	seq   uint64
	fired uint64
	live  int // scheduled and not yet fired or cancelled

	heap []slot   // inline 4-ary min-heap of calendar slots
	pool []record // event records addressed by slot.idx
	free []int32  // recycled record indexes
	hole bool     // heap[0] is the fired event's slot, held for the callback's first schedule

	// Optional flight recorder (see flight.go); a detached recorder costs
	// one nil check per schedule, fire and cancel.
	flight *Flight
}

// New returns an engine with the clock at zero and an empty calendar.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated instant.
func (e *Engine) Now() simtime.Time { return e.now }

// Fired returns the number of events executed so far (a cheap progress and
// cost metric for benchmarks).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently in the calendar
// (scheduled and neither fired nor cancelled).
func (e *Engine) Pending() int { return e.live }

// CalendarLen returns the number of calendar slots, including lazy-cancel
// tombstones that have not yet surfaced. CalendarLen() - Pending() is the
// tombstone backlog — an observability signal for abort-heavy models,
// where cancellations far outnumber firings. The hole a running callback
// holds at the root is not a slot.
func (e *Engine) CalendarLen() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// alloc returns a record index from the free list, growing the pool only
// when the list is empty, and bumps the record's generation so handles to
// the previous incarnation go stale.
func (e *Engine) alloc() int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		if e.flight != nil {
			e.flight.poolHits++
		}
	} else {
		e.pool = append(e.pool, record{})
		idx = int32(len(e.pool) - 1)
		if e.flight != nil {
			e.flight.poolGrowth++
		}
	}
	e.pool[idx].gen++
	return idx
}

// release recycles a record whose slot has left the calendar.
func (e *Engine) release(idx int32) {
	r := &e.pool[idx]
	r.fn = nil
	r.ctx = nil
	r.state = stateFree
	e.free = append(e.free, idx)
}

// past reports whether an event cannot be scheduled at instant at: it
// precedes now, or it is NaN. A NaN instant compares false with every
// other, so once fired it would leave Now() NaN and no later instant
// could ever be found in the past. +Inf is accepted.
func (e *Engine) past(at simtime.Time) bool { return !(at >= e.now) }

// At schedules fn to run at the given instant and returns a handle that can
// cancel it. Scheduling in the past or at a NaN instant returns
// ErrPastEvent.
func (e *Engine) At(at simtime.Time, fn func()) (Event, error) {
	return e.schedule(at, callClosure, fn, true)
}

// After schedules fn to run d time units from now.
func (e *Engine) After(d simtime.Duration, fn func()) (Event, error) {
	if !(d >= 0) {
		return Event{}, fmt.Errorf("%w: delay=%v", ErrPastEvent, d)
	}
	return e.At(e.now.Add(d), fn)
}

// AtCall schedules fn(ctx) to run at the given instant. It is the
// allocation-free flavour of At for hot model code: fn is typically a
// package-level function and ctx a pooled pointer, so scheduling performs
// no closure allocation. Firing order relative to At events is by
// scheduling order, exactly as for At.
func (e *Engine) AtCall(at simtime.Time, fn func(any), ctx any) (Event, error) {
	return e.schedule(at, fn, ctx, false)
}

// AfterCall schedules fn(ctx) to run d time units from now (see AtCall).
func (e *Engine) AfterCall(d simtime.Duration, fn func(any), ctx any) (Event, error) {
	if !(d >= 0) {
		return Event{}, fmt.Errorf("%w: delay=%v", ErrPastEvent, d)
	}
	return e.AtCall(e.now.Add(d), fn, ctx)
}

// schedule checks the instant and sifts one event into the calendar.
func (e *Engine) schedule(at simtime.Time, fn func(any), ctx any, closure bool) (Event, error) {
	if e.past(at) {
		return Event{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	s := e.place(at, fn, ctx, closure)
	e.insert(s)
	return Event{eng: e, idx: s.idx, gen: e.pool[s.idx].gen, at: at}, nil
}

// insert puts s into the heap: into the root's hole while a callback holds
// one, else one past the last slot. It stays small enough to inline into
// schedule (make inline checks), so an event costs one call to sift.
func (e *Engine) insert(s slot) {
	i := len(e.heap)
	if e.hole {
		i = 0
		e.hole = false
	}
	e.sift(i, s)
}

// place is the one path by which an event enters the engine: it fills a
// recycled record with fn(ctx), counts it on the flight recorder (closure
// marks an At or batch Fn event) and returns its slot under the next
// sequence number. The caller puts the slot into the heap.
func (e *Engine) place(at simtime.Time, fn func(any), ctx any, closure bool) slot {
	idx := e.alloc()
	r := &e.pool[idx]
	r.fn = fn
	r.ctx = ctx
	r.state = statePending
	if f := e.flight; f != nil {
		f.scheduled++
		if closure {
			f.closures++
		} else {
			f.calls++
		}
	}
	s := slot{at: at, seq: e.seq, idx: idx}
	e.seq++
	e.live++
	return s
}

// BatchEntry describes one event of a ScheduleBatch call. Exactly one of
// Fn or Call must be set; Ctx is the argument passed to Call.
type BatchEntry struct {
	At   simtime.Time
	Fn   func()
	Call func(any)
	Ctx  any
}

// ScheduleBatch inserts all entries into the calendar in one pass. It is
// semantically identical to calling At/AtCall once per entry in slice
// order — sequence numbers are assigned in that order, so the firing
// order (including FIFO tie-breaks) is bit-identical to the sequential
// calls — but large batches are inserted by appending every slot and
// re-heapifying once, O(n + k) instead of O(k log n) sift-ups. Burst
// arrivals, trace replays and injection timelines use it to arm many
// events at a known instant cheaply.
//
// Entries are validated up front; on error (an entry in the past or with
// no callback) nothing is scheduled.
func (e *Engine) ScheduleBatch(entries []BatchEntry) error {
	for i := range entries {
		if e.past(entries[i].At) {
			return fmt.Errorf("%w: entry %d: at=%v now=%v", ErrPastEvent, i, entries[i].At, e.now)
		}
		if (entries[i].Fn == nil) == (entries[i].Call == nil) {
			return fmt.Errorf("des: batch entry %d: exactly one of Fn and Call must be set", i)
		}
	}
	e.closeHole()
	k := len(entries)
	// Small batches relative to the calendar sift in one by one; large
	// ones append all slots and rebuild the heap bottom-up.
	bulk := k >= 8 && k >= len(e.heap)/4
	for i := range entries {
		ent := &entries[i]
		fn, ctx, closure := ent.Call, ent.Ctx, ent.Fn != nil
		if closure {
			fn, ctx = callClosure, ent.Fn
		}
		s := e.place(ent.At, fn, ctx, closure)
		if bulk {
			e.heap = append(e.heap, s)
		} else {
			e.insert(s)
		}
	}
	if e.flight != nil {
		e.flight.batched += uint64(k)
	}
	if bulk {
		e.heapify()
	}
	return nil
}

// heapify restores the 4-ary heap property over the whole slot slice
// (Floyd's bottom-up construction).
func (e *Engine) heapify() {
	h := e.heap
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		e.sift(i, h[i])
	}
}

// sift writes s, whose vacancy is index i, to its place in the 4-ary
// heap, moving one slot per level into the vacancy; i == len(heap) is the
// vacancy one past the last slot, which the heap grows to take. A vacancy
// with children (the root, or a parent during heapify) sinks; one without
// (the last slot) rises. While the children form a full group of four, the
// least of them is chosen by a two-round tournament whose winners are
// selected with the compare's borrow as a mask, so the only branch per
// level is the one that stops the sift. A partial last group is scanned,
// each compare selecting the running least with the same mask.
func (e *Engine) sift(i int, s slot) {
	h := e.heap
	if i == len(h) {
		h = append(h, s)
		e.heap = h
	}
	n := len(h)
	sk := timeKey(s.at)
	if i<<2+1 >= n {
		for i > 0 {
			p := (i - 1) >> 2
			if keyLess(sk, s.seq, timeKey(h[p].at), h[p].seq) == 0 {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = s
		return
	}
	for {
		c := i<<2 + 1
		if c+4 > n {
			break
		}
		g := (*[4]slot)(h[c : c+4])
		a := less(&g[1], &g[0])
		b := 2 + less(&g[3], &g[2])
		m := a ^ (a^b)&-less(&g[b&3], &g[a&3])
		w := &g[m&3]
		if keyLess(timeKey(w.at), w.seq, sk, s.seq) == 0 {
			h[i] = s
			return
		}
		h[i] = *w
		i = c + int(m)
	}
	// Fewer than four children: their own children lie past the end.
	if c := i<<2 + 1; c < n {
		m := c
		for j := c + 1; j < n; j++ {
			m += (j - m) & -int(less(&h[j], &h[m]))
		}
		if less(&h[m], &s) != 0 {
			h[i] = h[m]
			i = m
		}
	}
	h[i] = s
}

// Cancel removes a pending event from the calendar. Cancelling a fired,
// already-cancelled or zero-handle event is a no-op and reports false.
// Cancellation is O(1): the record is tombstoned and its calendar slot is
// discarded lazily when it reaches the top of the heap.
func (e *Engine) Cancel(ev Event) bool {
	r := ev.rec()
	if r == nil || r.state != statePending {
		return false
	}
	r.state = stateCancelled
	e.live--
	if e.flight != nil {
		e.flight.cancelled++
	}
	return true
}

// prune closes a hole left open by the running callback, discards
// tombstoned slots from the top of the heap, recycling their records, and
// reports whether a live slot remains on top.
func (e *Engine) prune() bool {
	e.closeHole()
	for len(e.heap) > 0 {
		idx := e.heap[0].idx
		if e.pool[idx].state != stateCancelled {
			return true
		}
		e.popMin()
		e.release(idx)
	}
	return false
}

// Step executes the next event, advancing the clock to its instant. It
// reports false when the calendar is empty.
func (e *Engine) Step() bool {
	if !e.prune() {
		return false
	}
	e.fire()
	return true
}

// fire runs the event of the live slot on top of the calendar, holding
// its slot as a hole for the callback's first schedule, and pops the slot
// if the callback leaves the hole open.
func (e *Engine) fire() {
	s := e.heap[0]
	r := &e.pool[s.idx]
	fn, ctx := r.fn, r.ctx
	// Recycle before firing so the callback's own scheduling can reuse the
	// record: a steady schedule-fire loop then touches no allocator at all.
	e.release(s.idx)
	if e.flight != nil {
		e.flight.onFire(e.live)
	}
	e.now = s.at
	e.live--
	e.fired++
	e.hole = true
	fn(ctx)
	e.closeHole()
}

// closeHole pops the root when it is a hole.
func (e *Engine) closeHole() {
	if e.hole {
		e.hole = false
		e.popMin()
	}
}

// Next returns the instant of the earliest pending event; ok is false when
// the calendar is empty. A wall-clock driver uses it to sleep until the
// model next has something to do.
func (e *Engine) Next() (at simtime.Time, ok bool) {
	if !e.prune() {
		return 0, false
	}
	return e.heap[0].at, true
}

// RunUntil executes events in order until the calendar is exhausted or the
// next event lies strictly after the horizon. The clock finishes at the
// horizon (or at the last event if the calendar drains first).
func (e *Engine) RunUntil(horizon simtime.Time) {
	for e.prune() && !e.heap[0].at.After(horizon) {
		e.fire()
	}
	if e.now.Before(horizon) {
		e.now = horizon
	}
}

// Run executes events until the calendar is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// popMin removes the root slot from the 4-ary heap: the last slot takes
// its place and sinks to its position.
func (e *Engine) popMin() {
	h := e.heap
	n := len(h) - 1
	e.heap = h[:n]
	if n > 0 {
		e.sift(0, h[n])
	}
}
