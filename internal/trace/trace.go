// Package trace records per-node scheduling events from a simulation and
// renders them for humans: an event log, per-node Gantt charts, and
// queue-length time series. It implements node.Observer, so attaching a
// tracer is one option on node construction:
//
//	tr := trace.New()
//	n := node.New(0, eng, node.WithObserver(tr))
//
// Tracing is intended for small demonstration runs (the Gantt chart is
// ASCII art); production experiments leave it off.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/node"
	"repro/internal/simtime"
)

// Kind discriminates scheduling events.
type Kind int

// Event kinds.
const (
	KindEnqueue Kind = iota + 1
	KindStart
	KindFinish
	KindAbort
	KindPreempt
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindStart:
		return "start"
	case KindFinish:
		return "finish"
	case KindAbort:
		return "abort"
	case KindPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded scheduling event.
type Event struct {
	Kind    Kind
	Node    int
	At      simtime.Time
	Task    string
	Virtual simtime.Time
	Boost   bool
}

// itemKey identifies one incarnation of a (possibly pooled) item: nodes
// recycle Item records, so a bare pointer would alias successive tasks.
// The generation tag disambiguates them.
type itemKey struct {
	it  *node.Item
	gen uint32
}

// Tracer collects events. The zero value is not usable; call New.
type Tracer struct {
	events []Event
	names  map[itemKey]string
	nextID int
}

var _ node.Observer = (*Tracer)(nil)

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{names: make(map[itemKey]string)}
}

// taskName labels an item; unnamed tasks get stable generated labels.
func (tr *Tracer) taskName(it *node.Item) string {
	if it.Task.Name != "" {
		return it.Task.Name
	}
	k := itemKey{it, it.Generation()}
	if name, ok := tr.names[k]; ok {
		return name
	}
	name := fmt.Sprintf("t%d", tr.nextID)
	tr.nextID++
	tr.names[k] = name
	return name
}

func (tr *Tracer) record(kind Kind, n *node.Node, it *node.Item, at simtime.Time) {
	tr.events = append(tr.events, Event{
		Kind:    kind,
		Node:    n.ID(),
		At:      at,
		Task:    tr.taskName(it),
		Virtual: it.Task.VirtualDeadline,
		Boost:   it.Task.PriorityBoost,
	})
}

// OnEnqueue implements node.Observer.
func (tr *Tracer) OnEnqueue(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindEnqueue, n, it, at)
}

// OnStart implements node.Observer.
func (tr *Tracer) OnStart(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindStart, n, it, at)
}

// OnFinish implements node.Observer.
func (tr *Tracer) OnFinish(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindFinish, n, it, at)
}

// OnAbort implements node.Observer.
func (tr *Tracer) OnAbort(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindAbort, n, it, at)
}

// OnPreempt implements node.Observer.
func (tr *Tracer) OnPreempt(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindPreempt, n, it, at)
}

// Events returns a copy of the recorded events in order.
func (tr *Tracer) Events() []Event {
	out := make([]Event, len(tr.events))
	copy(out, tr.events)
	return out
}

// Len returns the number of recorded events.
func (tr *Tracer) Len() int { return len(tr.events) }

// Hash returns a hex digest over the full event trace in a canonical,
// full-precision serialization. Two runs of the same deterministic model
// produce identical hashes; any divergence in event order, timing, task
// identity, deadline assignment or boost flag changes the digest. The
// scenario harness uses it for golden-trace regression tests.
func (tr *Tracer) Hash() string {
	h := sha256.New()
	var buf []byte
	for _, e := range tr.events {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(e.Kind), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(e.Node), 10)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, float64(e.At), 'g', 17, 64)
		buf = append(buf, '|')
		buf = append(buf, e.Task...)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, float64(e.Virtual), 'g', 17, 64)
		buf = append(buf, '|')
		buf = strconv.AppendBool(buf, e.Boost)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Log renders the raw event log.
func (tr *Tracer) Log() string {
	var b strings.Builder
	for _, e := range tr.events {
		boost := ""
		if e.Boost {
			boost = " [GF]"
		}
		fmt.Fprintf(&b, "%10.3f node%-3d %-8s %s (vdl %s)%s\n",
			float64(e.At), e.Node, e.Kind, e.Task, e.Virtual, boost)
	}
	return b.String()
}

// segment is a served stretch of one task at one node.
type segment struct {
	node       int
	task       string
	start, end simtime.Time
}

// segments reconstructs service intervals from start/finish/abort/preempt
// pairs. A still-open segment at the end of the trace is closed at the
// last event time.
func (tr *Tracer) segments() []segment {
	type key struct {
		node int
		task string
	}
	open := map[key]simtime.Time{}
	var segs []segment
	var last simtime.Time
	for _, e := range tr.events {
		if e.At.After(last) {
			last = e.At
		}
		k := key{e.Node, e.Task}
		switch e.Kind {
		case KindStart:
			open[k] = e.At
		case KindFinish, KindPreempt, KindAbort:
			if start, ok := open[k]; ok {
				segs = append(segs, segment{e.Node, e.Task, start, e.At})
				delete(open, k)
			}
		}
	}
	for k, start := range open {
		segs = append(segs, segment{k.node, k.task, start, last})
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].node != segs[j].node {
			return segs[i].node < segs[j].node
		}
		return segs[i].start < segs[j].start
	})
	return segs
}

// Gantt renders an ASCII Gantt chart of node activity over [from, to),
// using width character columns. Each task is assigned a letter; idle time
// is '.', and a column where several segments overlap (sub-column
// granularity) shows the latest one.
func (tr *Tracer) Gantt(from, to simtime.Time, width int) string {
	if width < 10 {
		width = 10
	}
	if !to.After(from) || len(tr.events) == 0 {
		return "(empty trace)\n"
	}
	segs := tr.segments()
	nodes := map[int]bool{}
	// Letters cycle through the alphabet, so past 62 tasks two tasks
	// share one; order keeps the legend in first-appearance order.
	letters := map[string]byte{}
	var order []string
	alphabet := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	letterOf := func(task string) byte {
		if c, ok := letters[task]; ok {
			return c
		}
		c := alphabet[len(order)%len(alphabet)]
		letters[task] = c
		order = append(order, task)
		return c
	}
	for _, e := range tr.events {
		nodes[e.Node] = true
	}
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	span := float64(to.Sub(from))
	col := func(t simtime.Time) int {
		c := int(float64(t.Sub(from)) / span * float64(width))
		if c < 0 {
			return 0
		}
		if c >= width {
			return width - 1
		}
		return c
	}

	rows := make(map[int][]byte, len(ids))
	for _, id := range ids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		rows[id] = row
	}
	for _, s := range segs {
		if !s.end.After(from) || !to.After(s.start) {
			continue
		}
		row := rows[s.node]
		if row == nil {
			continue
		}
		c0, c1 := col(s.start.Max(from)), col(s.end.Min(to))
		letter := letterOf(s.task)
		for c := c0; c <= c1 && c < width; c++ {
			row[c] = letter
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "gantt [%s, %s) — one column ≈ %.3f time units\n",
		from, to, span/float64(width))
	for _, id := range ids {
		fmt.Fprintf(&b, "node%-3d |%s|\n", id, rows[id])
	}
	// Legend, in first-appearance order.
	for _, task := range order {
		fmt.Fprintf(&b, "  %c = %s\n", letters[task], task)
	}
	return b.String()
}

// QueueSample is the waiting-queue length of a node at an instant.
type QueueSample struct {
	At  simtime.Time
	Len int
}

// QueueLengths reconstructs the queue-length time series of one node
// (waiting items only, excluding the one in service). Membership is
// tracked per task label, so service aborts — which remove an item that
// was not waiting — do not distort the count.
func (tr *Tracer) QueueLengths(nodeID int) []QueueSample {
	var out []QueueSample
	waiting := map[string]bool{}
	for _, e := range tr.events {
		if e.Node != nodeID {
			continue
		}
		switch e.Kind {
		case KindEnqueue, KindPreempt:
			waiting[e.Task] = true
		case KindStart, KindAbort:
			delete(waiting, e.Task)
		default:
			continue
		}
		out = append(out, QueueSample{e.At, len(waiting)})
	}
	return out
}
