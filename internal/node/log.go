package node

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/simtime"
)

// EventKind discriminates scheduling events.
type EventKind uint8

// Event kinds, one per Observer callback.
const (
	EventEnqueue EventKind = iota + 1
	EventStart
	EventFinish
	EventAbort
	EventPreempt
)

var eventKindNames = [...]string{"", "enqueue", "start", "finish", "abort", "preempt"}

// String returns the kind name.
func (k EventKind) String() string {
	if k > 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "EventKind(" + strconv.Itoa(int(k)) + ")"
}

// Event is one recorded scheduling event. It is a fixed-size value: it
// names the item by its Slot pair and Generation rather than holding the
// *Item or its *Task, so a log never keeps a recycled item or task alive
// and never sees its next incarnation.
type Event struct {
	At      simtime.Time // instant of the event
	Virtual simtime.Time // the item's virtual deadline at the event
	Name    string       // the task's Name; "" for unnamed tasks
	Node    int          // id of the node the event happened at
	Home    int          // the item's Slot pair
	Slot    int
	Gen     uint32 // the item's Generation
	Kind    EventKind
	Boost   bool // the item's GF priority boost
}

// Log is an append-only Observer that records every scheduling event of
// the nodes it is attached to. Recording copies fields and does nothing
// else; names for unnamed tasks are made up only when the log is
// rendered (see Labels). The zero value is an empty log:
//
//	var events node.Log
//	n := node.New(0, eng, node.WithObserver(&events))
type Log []Event

var _ Observer = (*Log)(nil)

func (l *Log) record(kind EventKind, n *Node, it *Item, at simtime.Time) {
	home, slot := it.Slot()
	*l = append(*l, Event{
		At:      at,
		Virtual: it.Task.VirtualDeadline,
		Name:    it.Task.Name,
		Node:    n.id,
		Home:    home,
		Slot:    slot,
		Gen:     it.gen,
		Kind:    kind,
		Boost:   it.Task.PriorityBoost,
	})
}

// OnEnqueue implements Observer.
func (l *Log) OnEnqueue(n *Node, it *Item, at simtime.Time) { l.record(EventEnqueue, n, it, at) }

// OnStart implements Observer.
func (l *Log) OnStart(n *Node, it *Item, at simtime.Time) { l.record(EventStart, n, it, at) }

// OnFinish implements Observer.
func (l *Log) OnFinish(n *Node, it *Item, at simtime.Time) { l.record(EventFinish, n, it, at) }

// OnAbort implements Observer.
func (l *Log) OnAbort(n *Node, it *Item, at simtime.Time) { l.record(EventAbort, n, it, at) }

// OnPreempt implements Observer.
func (l *Log) OnPreempt(n *Node, it *Item, at simtime.Time) { l.record(EventPreempt, n, it, at) }

// Len returns the number of recorded events.
func (l Log) Len() int { return len(l) }

// Labels returns one task label per event. A named task is labelled by
// its Name. An unnamed one gets "t<n>", numbered in the order its item
// incarnation — (home, slot, generation) — first appears. Submit assigns
// the slot before the first event fires, and slots are unique among
// nodes with distinct ids, so each incarnation keeps one label across
// nodes and a recycled item gets a fresh one.
func (l Log) Labels() []string {
	type incarnation struct {
		home, slot int
		gen        uint32
	}
	labels := make([]string, len(l))
	ids := map[incarnation]string{}
	for i, e := range l {
		if e.Name != "" {
			labels[i] = e.Name
			continue
		}
		k := incarnation{e.Home, e.Slot, e.Gen}
		name, ok := ids[k]
		if !ok {
			name = "t" + strconv.Itoa(len(ids))
			ids[k] = name
		}
		labels[i] = name
	}
	return labels
}

// Hash returns a hex digest over the full event log in a canonical,
// full-precision serialization. Two runs of the same deterministic model
// produce identical hashes; any divergence in event order, timing, task
// identity, deadline assignment or boost flag changes the digest. The
// scenario harness uses it for golden-trace regression tests.
func (l Log) Hash() string {
	h := sha256.New()
	var buf []byte
	for i, label := range l.Labels() {
		e := &l[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(e.Kind), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(e.Node), 10)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, float64(e.At), 'g', 17, 64)
		buf = append(buf, '|')
		buf = append(buf, label...)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, float64(e.Virtual), 'g', 17, 64)
		buf = append(buf, '|')
		buf = strconv.AppendBool(buf, e.Boost)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
