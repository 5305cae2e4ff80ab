package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/task"
)

// mkItem builds an item with the given name, virtual deadline and exec.
func mkItem(t *testing.T, name string, vdl simtime.Time, ex simtime.Duration) *node.Item {
	t.Helper()
	tk := task.MustSimple(name, 0, ex)
	tk.VirtualDeadline = vdl
	tk.RealDeadline = vdl
	return node.NewItem(tk)
}

// record runs the items to completion on one node and returns the log.
func record(t *testing.T, items ...*node.Item) node.Log {
	t.Helper()
	eng := des.New()
	var events node.Log
	n := node.New(0, eng, node.WithObserver(&events))
	for _, it := range items {
		if err := n.Submit(it); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	return events
}

func TestGanttRendersSegments(t *testing.T) {
	events := record(t, mkItem(t, "alpha", 10, 5), mkItem(t, "beta", 20, 5))
	chart := gantt(events, 0, 10, 20)
	if !strings.Contains(chart, "node0") {
		t.Errorf("missing node row:\n%s", chart)
	}
	if !strings.Contains(chart, "a = alpha") || !strings.Contains(chart, "b = beta") {
		t.Errorf("missing legend:\n%s", chart)
	}
	// First half a's letter, second half b's.
	row := ""
	for _, line := range strings.Split(chart, "\n") {
		if strings.HasPrefix(line, "node0") {
			row = line
		}
	}
	if !strings.Contains(row, "aaaa") || !strings.Contains(row, "bbbb") {
		t.Errorf("expected solid a and b runs:\n%s", chart)
	}
}

func TestGanttEmptyAndDegenerate(t *testing.T) {
	if got := gantt(nil, 0, 10, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty trace chart = %q", got)
	}
	events := record(t, mkItem(t, "x", 5, 1))
	if got := gantt(events, 10, 10, 40); !strings.Contains(got, "empty") {
		t.Errorf("degenerate window chart = %q", got)
	}
	// Tiny width is clamped, not panicking.
	_ = gantt(events, 0, 10, 1)
}

// TestGanttLegendDeterministic renders a trace of more than 62 tasks, so
// letters repeat, and checks that the legend lists every task once in
// first-appearance order and that the rendering is byte-identical every
// time.
func TestGanttLegendDeterministic(t *testing.T) {
	const tasks = 80
	var items []*node.Item
	for i := 0; i < tasks; i++ {
		items = append(items, mkItem(t, fmt.Sprintf("t%d", i), simtime.Time(i+1), 1))
	}
	events := record(t, items...)
	want := gantt(events, 0, tasks, 2*tasks)
	legend := want[strings.Index(want, "\n  ")+1:]
	lines := strings.Split(strings.TrimSuffix(legend, "\n"), "\n")
	if len(lines) != tasks {
		t.Fatalf("legend has %d lines, want %d:\n%s", len(lines), tasks, legend)
	}
	for i, l := range []string{"  a = t0", "  9 = t61", "  a = t62", "  b = t63"} {
		if idx := []int{0, 61, 62, 63}[i]; lines[idx] != l {
			t.Errorf("legend line %d = %q, want %q", idx, lines[idx], l)
		}
	}
	for i := 0; i < 20; i++ {
		if got := gantt(events, 0, tasks, 2*tasks); got != want {
			t.Fatalf("rendering %d differs:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}

func TestLogFormat(t *testing.T) {
	it := mkItem(t, "boosted", 5, 1)
	it.Task.PriorityBoost = true
	var b strings.Builder
	if err := writeLog(&b, record(t, it)); err != nil {
		t.Fatal(err)
	}
	want := "     0.000 node0   enqueue  boosted (vdl 5) [GF]\n"
	if log := b.String(); !strings.HasPrefix(log, want) {
		t.Errorf("log starts %q, want %q", log, want)
	}
}

func TestWriteJSONLSharesRecordSchema(t *testing.T) {
	events := record(t, mkItem(t, "a", 10, 2), mkItem(t, "b", 20, 1))
	var b strings.Builder
	if err := writeJSONL(&b, events); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var recs []obs.Record
	for sc.Scan() {
		var rec obs.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d invalid JSON: %v", len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != events.Len() {
		t.Fatalf("wrote %d records for %d events", len(recs), events.Len())
	}
	wantKinds := []string{"enqueue", "start", "enqueue", "finish", "start", "finish"}
	for i, rec := range recs {
		if rec.Type != "event" {
			t.Errorf("record %d: type %q, want event", i, rec.Type)
		}
		if rec.Kind != wantKinds[i] {
			t.Errorf("record %d: kind %q, want %q", i, rec.Kind, wantKinds[i])
		}
		if rec.At == nil {
			t.Errorf("record %d: missing at", i)
		}
		if rec.VDL == nil {
			t.Errorf("record %d: missing vdl", i)
		}
		if rec.Node != 0 {
			t.Errorf("record %d: node %d, want 0", i, rec.Node)
		}
	}
	if recs[3].Kind == "finish" && *recs[3].At != 2 {
		t.Errorf("first finish at %g, want 2", *recs[3].At)
	}
}
