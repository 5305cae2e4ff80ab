package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// writeLog renders the raw event log, one line per event.
func writeLog(w io.Writer, events node.Log) error {
	var b strings.Builder
	for i, label := range events.Labels() {
		e := &events[i]
		boost := ""
		if e.Boost {
			boost = " [GF]"
		}
		fmt.Fprintf(&b, "%10.3f node%-3d %-8s %s (vdl %s)%s\n",
			float64(e.At), e.Node, e.Kind, label, e.Virtual, boost)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeJSONL writes the event log as JSON lines using the shared
// telemetry record schema (obs.Record with Type "event"), so it is
// machine-readable alongside span exports: one line per scheduling
// event, in firing order, with the event instant in At and the item's
// virtual deadline at the time of the event in VDL.
func writeJSONL(w io.Writer, events node.Log) error {
	for i, label := range events.Labels() {
		e := &events[i]
		rec := obs.Record{
			Type:  "event",
			Kind:  e.Kind.String(),
			Task:  label,
			Node:  e.Node,
			At:    obs.F(float64(e.At)),
			VDL:   obs.F(float64(e.Virtual)),
			Boost: e.Boost,
		}
		if err := obs.WriteRecord(w, rec); err != nil {
			return fmt.Errorf("write event %d: %w", i, err)
		}
	}
	return nil
}

// segment is a served stretch of one task at one node.
type segment struct {
	node       int
	task       string
	start, end simtime.Time
}

// segments reconstructs service intervals from start/finish/abort/preempt
// pairs. A still-open segment at the end of the log is closed at the
// last event time.
func segments(events node.Log) []segment {
	type key struct {
		node int
		task string
	}
	open := map[key]simtime.Time{}
	var segs []segment
	var last simtime.Time
	labels := events.Labels()
	for i, e := range events {
		if e.At.After(last) {
			last = e.At
		}
		k := key{e.Node, labels[i]}
		switch e.Kind {
		case node.EventStart:
			open[k] = e.At
		case node.EventFinish, node.EventPreempt, node.EventAbort:
			if start, ok := open[k]; ok {
				segs = append(segs, segment{e.Node, k.task, start, e.At})
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

// gantt renders an ASCII Gantt chart of node activity over [from, to),
// using width character columns. Each task is assigned a letter; idle time
// is '.', and a column where several segments overlap (sub-column
// granularity) shows the latest one.
func gantt(events node.Log, from, to simtime.Time, width int) string {
	if width < 10 {
		width = 10
	}
	if !to.After(from) || len(events) == 0 {
		return "(empty trace)\n"
	}
	segs := segments(events)
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
	rows := map[int][]byte{}
	var ids []int
	for _, e := range events {
		if rows[e.Node] == nil {
			rows[e.Node] = bytes.Repeat([]byte{'.'}, width)
			ids = append(ids, e.Node)
		}
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

	for _, s := range segs {
		if !s.end.After(from) || !to.After(s.start) {
			continue
		}
		row := rows[s.node]
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
