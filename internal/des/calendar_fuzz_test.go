package des

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// FuzzCalendarOrder runs a random program of At, After, AtCall,
// AfterCall, ScheduleBatch, Cancel, Step and RunUntil against a plain
// reference model of the calendar: the scheduled events in a list, fired
// in (instant, schedule order) by a linear scan. After every operation,
// and inside every callback, the engine must agree with the model on the
// fire order, Now, Fired, Pending, CalendarLen (tombstones included),
// every handle's Pending and Cancelled, and the counters of the attached
// Flight. Batches range from one entry to past the bulk-heapify
// threshold and mix Fn and Call entries; some fired events schedule a
// follow-up from inside their callback, so records recycled before the
// fire are reused at once.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 5, 4, 40, 6, 0, 7, 16})
	f.Add([]byte{1, 4, 30, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31,
		2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 5, 3, 5, 9, 7, 255})
	f.Add([]byte{0, 0, 241, 1, 250, 4, 3, 1, 2, 254, 6, 6})
	s := rng.NewStream(7)
	for i := 0; i < 8; i++ {
		prog := make([]byte, 600)
		for j := range prog {
			prog[j] = byte(s.IntN(256))
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		runCalendarProgram(t, prog)
	})
}

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	at      simtime.Time
	state   uint8
	removed bool // its slot has left the calendar
	child   int  // delay step of the follow-up it schedules on firing; -1 none
}

// refHandle pairs an engine handle with its model event (-1: zero handle).
type refHandle struct {
	ev Event
	id int
}

// calendarRef drives an engine and the reference model side by side.
type calendarRef struct {
	t   *testing.T
	eng *Engine
	fl  *Flight

	evs     []refEvent
	cal     []int // model events whose slot is in the calendar, in schedule order
	handles []refHandle
	now     simtime.Time
	fired   uint64
	calls   int // callbacks run, for Step and RunUntil accounting

	scheduled, batched, closures, callbacks, cancelled uint64
	maxCal                                             int
}

// program reads successive bytes, returning 0 past the end.
type program struct {
	b []byte
	i int
}

func (p *program) next() int {
	p.i++
	if p.i > len(p.b) {
		return 0
	}
	return int(p.b[p.i-1])
}

func (p *program) done() bool { return p.i >= len(p.b) }

// delay maps a byte onto a grid of half-unit steps, so ties are common.
func delay(b int) simtime.Duration { return simtime.Duration(b%16) / 2 }

func runCalendarProgram(t *testing.T, prog []byte) {
	p := &program{b: prog}
	r := &calendarRef{t: t, eng: New(), handles: []refHandle{{id: -1}}}
	if p.next()&1 == 1 {
		r.fl = NewFlight()
		r.eng.AttachFlight(r.fl)
	}
	for !p.done() {
		switch op := p.next() % 8; op {
		case 0, 1, 2, 3:
			b, c := p.next(), p.next()
			r.single(op, b, c)
		case 4:
			r.batch(p)
		case 5:
			r.cancel(p.next())
		case 6:
			r.step()
		case 7:
			r.runUntil(r.now.Add(delay(p.next()) * 3))
		}
		r.check()
	}
	// Drain: every pending event fires in model order.
	for r.eng.Pending() > 0 {
		r.step()
		r.check()
	}
	r.step()
	r.check()
}

// childOf decodes a follow-up spec: odd bytes schedule one on firing.
func childOf(c int) int {
	if c&1 == 0 {
		return -1
	}
	return c >> 1
}

// single schedules one event through At (0), After (1), AtCall (2) or
// AfterCall (3); a b of 240 or more asks for an instant in the past.
func (r *calendarRef) single(op, b, c int) {
	past := b >= 240
	at := r.now.Add(delay(b))
	d := delay(b)
	if past {
		at = r.now.Add(-1)
		d = -1
	}
	id := len(r.evs)
	var ev Event
	var err error
	switch op {
	case 0:
		ev, err = r.eng.At(at, r.closure(id))
	case 1:
		ev, err = r.eng.After(d, r.closure(id))
	case 2:
		ev, err = r.eng.AtCall(at, r.fireCall, id)
	case 3:
		ev, err = r.eng.AfterCall(d, r.fireCall, id)
	}
	if past {
		if err == nil {
			r.t.Fatalf("op %d at %v (now %v): want ErrPastEvent", op, at, r.now)
		}
		return
	}
	if err != nil {
		r.t.Fatalf("op %d at %v: %v", op, at, err)
	}
	r.add(at, op >= 2, childOf(c), false)
	r.handles = append(r.handles, refHandle{ev: ev, id: id})
	if ev.Time() != at {
		r.t.Fatalf("handle time %v, want %v", ev.Time(), at)
	}
}

// batch schedules one ScheduleBatch of 0-39 entries. Entry bytes 252-255
// make the whole batch invalid (past instant, or no or both callbacks),
// which must leave the calendar untouched.
func (r *calendarRef) batch(p *program) {
	k := p.next() % 40
	entries := make([]BatchEntry, k)
	kinds := make([]int, k)
	valid := true
	for i := range entries {
		b := p.next()
		kinds[i] = b
		id := len(r.evs) + i
		ent := BatchEntry{At: r.now.Add(delay(b >> 1))}
		switch {
		case b == 252:
			ent.At = r.now.Add(-0.5)
			ent.Fn = r.closure(id)
		case b == 253:
			// Neither callback.
		case b >= 254:
			ent.Fn = r.closure(id)
			ent.Call, ent.Ctx = r.fireCall, id
		case b&1 == 0:
			ent.Fn = r.closure(id)
		default:
			ent.Call, ent.Ctx = r.fireCall, id
		}
		if b >= 252 {
			valid = false
		}
		entries[i] = ent
	}
	err := r.eng.ScheduleBatch(entries)
	if !valid {
		if err == nil {
			r.t.Fatalf("invalid batch %v accepted", kinds)
		}
		return
	}
	if err != nil {
		r.t.Fatalf("batch %v: %v", kinds, err)
	}
	for i, ent := range entries {
		r.add(ent.At, kinds[i]&1 == 1, childOf(kinds[i]>>5), true)
	}
}

// add records one accepted schedule in the model.
func (r *calendarRef) add(at simtime.Time, call bool, child int, batch bool) {
	r.evs = append(r.evs, refEvent{at: at, state: statePending, child: child})
	r.cal = append(r.cal, len(r.evs)-1)
	if len(r.cal) > r.maxCal {
		r.maxCal = len(r.cal)
	}
	r.scheduled++
	if batch {
		r.batched++
	}
	if call {
		r.callbacks++
	} else {
		r.closures++
	}
}

func (r *calendarRef) closure(id int) func() { return func() { r.fire(id) } }

func (r *calendarRef) fireCall(x any) { r.fire(x.(int)) }

// top returns the position in r.cal of the earliest slot by (instant,
// schedule order), or -1 for an empty calendar. Event ids grow with
// schedule order, so the first minimum in r.cal is the FIFO winner.
func (r *calendarRef) top() int {
	m := -1
	for i, id := range r.cal {
		if m < 0 || r.evs[id].at < r.evs[r.cal[m]].at {
			m = i
		}
	}
	return m
}

func (r *calendarRef) removeAt(i int) {
	r.evs[r.cal[i]].removed = true
	r.cal = append(r.cal[:i], r.cal[i+1:]...)
}

// prune drops tombstones from the top of the model calendar, as the
// engine does before every fire and peek.
func (r *calendarRef) prune() {
	for {
		i := r.top()
		if i < 0 || r.evs[r.cal[i]].state != stateCancelled {
			return
		}
		r.removeAt(i)
	}
}

// fire runs inside an engine callback: the event must be the model's
// next, and the engine state seen by the callback must match.
func (r *calendarRef) fire(id int) {
	r.calls++
	r.prune()
	i := r.top()
	if i < 0 {
		r.t.Fatalf("event %d fired from an empty model calendar", id)
	}
	want := r.cal[i]
	if id != want {
		r.t.Fatalf("fired event %d (at %v), want %d (at %v)", id, r.evs[id].at, want, r.evs[want].at)
	}
	ev := &r.evs[id]
	r.removeAt(i)
	ev.state = stateFree
	r.now = ev.at
	r.fired++
	r.check()
	if ev.child >= 0 {
		at := r.now.Add(delay(ev.child))
		cid := len(r.evs)
		var h Event
		var err error
		if ev.child&1 == 0 {
			h, err = r.eng.At(at, r.closure(cid))
		} else {
			h, err = r.eng.AtCall(at, r.fireCall, cid)
		}
		if err != nil {
			r.t.Fatalf("follow-up of %d at %v: %v", id, at, err)
		}
		r.add(at, ev.child&1 == 1, -1, false)
		r.handles = append(r.handles, refHandle{ev: h, id: cid})
	}
}

func (r *calendarRef) cancel(b int) {
	h := r.handles[b%len(r.handles)]
	want := h.id >= 0 && r.evs[h.id].state == statePending
	if got := r.eng.Cancel(h.ev); got != want {
		r.t.Fatalf("Cancel(event %d) = %v, want %v", h.id, got, want)
	}
	if want {
		r.evs[h.id].state = stateCancelled
		r.cancelled++
	}
}

func (r *calendarRef) step() {
	before := r.calls
	ok := r.eng.Step()
	if ok != (r.calls == before+1) {
		r.t.Fatalf("Step = %v after %d callbacks", ok, r.calls-before)
	}
	if !ok {
		r.prune()
		if len(r.cal) != 0 {
			r.t.Fatalf("Step = false with %d model slots left", len(r.cal))
		}
	}
}

func (r *calendarRef) runUntil(horizon simtime.Time) {
	r.eng.RunUntil(horizon)
	r.prune()
	if i := r.top(); i >= 0 && !r.evs[r.cal[i]].at.After(horizon) {
		r.t.Fatalf("RunUntil(%v) left event %d at %v", horizon, r.cal[i], r.evs[r.cal[i]].at)
	}
	if r.now.Before(horizon) {
		r.now = horizon
	}
}

// check compares every observable of the engine with the model.
func (r *calendarRef) check() {
	t, e := r.t, r.eng
	t.Helper()
	live := 0
	for _, id := range r.cal {
		if r.evs[id].state == statePending {
			live++
		}
	}
	if e.Now() != r.now || e.Fired() != r.fired || e.Pending() != live || e.CalendarLen() != len(r.cal) {
		t.Fatalf("engine now %v fired %d pending %d calendar %d; model %v %d %d %d",
			e.Now(), e.Fired(), e.Pending(), e.CalendarLen(), r.now, r.fired, live, len(r.cal))
	}
	for _, h := range r.handles {
		pending, cancelled := false, false
		if h.id >= 0 {
			ev := r.evs[h.id]
			pending = ev.state == statePending
			cancelled = ev.state == stateCancelled && !ev.removed
		}
		if h.ev.Pending() != pending || h.ev.Cancelled() != cancelled {
			t.Fatalf("handle of event %d: pending %v cancelled %v, want %v %v",
				h.id, h.ev.Pending(), h.ev.Cancelled(), pending, cancelled)
		}
	}
	if f := r.fl; f != nil {
		if f.scheduled != r.scheduled || f.fired != r.fired || f.cancelled != r.cancelled ||
			f.batched != r.batched || f.closures != r.closures || f.calls != r.callbacks {
			t.Fatalf("flight scheduled %d fired %d cancelled %d batched %d closures %d calls %d; "+
				"model %d %d %d %d %d %d", f.scheduled, f.fired, f.cancelled, f.batched, f.closures, f.calls,
				r.scheduled, r.fired, r.cancelled, r.batched, r.closures, r.callbacks)
		}
		// A record is in use while its slot is in the calendar, so the
		// pool grows exactly to the deepest calendar seen.
		if f.poolGrowth != uint64(r.maxCal) || f.poolHits != r.scheduled-uint64(r.maxCal) {
			t.Fatalf("flight pool growth %d hits %d; model max calendar %d of %d scheduled",
				f.poolGrowth, f.poolHits, r.maxCal, r.scheduled)
		}
	}
}
