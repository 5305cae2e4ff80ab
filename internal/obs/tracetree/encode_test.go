package tracetree

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// The reference documents below are the encoding/json forms the trace
// exports were specified with. The hand-written encoders must match
// json.Marshal of them byte for byte.

type nodeJSON struct {
	ID       uint64     `json:"id"`
	Kind     string     `json:"kind"`
	Task     string     `json:"task"`
	Node     int        `json:"node"`
	Start    float64    `json:"start"`
	End      *float64   `json:"end,omitempty"`
	Missed   bool       `json:"missed,omitempty"`
	Aborted  bool       `json:"aborted,omitempty"`
	Children []nodeJSON `json:"children,omitempty"`
}

type linkJSON struct {
	Kind string  `json:"kind"`
	From uint64  `json:"from"`
	To   uint64  `json:"to"`
	At   float64 `json:"at"`
}

type treeJSON struct {
	Rep   int        `json:"rep"`
	Root  uint64     `json:"root"`
	Task  string     `json:"task"`
	Spans int        `json:"spans"`
	Tree  nodeJSON   `json:"tree"`
	Links []linkJSON `json:"links,omitempty"`
}

func refNode(n *Node) nodeJSON {
	sp := n.Span
	out := nodeJSON{
		ID: sp.ID, Kind: sp.Kind, Task: sp.Task, Node: sp.Node,
		Missed: sp.Missed, Aborted: sp.Aborted, End: sp.End,
	}
	if sp.Start != nil {
		out.Start = *sp.Start
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, refNode(c))
	}
	return out
}

// refTreeLine is the reference encoding of one WriteTree line.
func refTreeLine(t *Tree) ([]byte, error) {
	tj := treeJSON{Rep: t.Rep, Root: t.Root.Span.ID, Task: t.Root.Span.Task, Spans: t.Spans, Tree: refNode(t.Root)}
	for _, l := range t.Links {
		tj.Links = append(tj.Links, linkJSON{Kind: l.Kind, From: l.From, To: l.To, At: l.At})
	}
	b, err := json.Marshal(tj)
	return append(b, '\n'), err
}

type refChromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ref converts an event to its reference document: the label, id string
// and args map WriteChrome used to build.
func (ev *chromeEvent) ref() refChromeEvent {
	r := refChromeEvent{Name: ev.name, Cat: ev.cat, Ph: ev.ph, Ts: ev.ts, Dur: ev.dur, Pid: ev.pid, Tid: ev.tid, BP: ev.bp}
	if ev.anonID != 0 {
		r.Name += "#" + strconv.FormatUint(ev.anonID, 10)
	}
	if ev.id != 0 {
		r.ID = strconv.FormatUint(ev.id, 10)
	}
	a := ev.args
	switch a.kind {
	case spanArgs:
		r.Args = map[string]any{"id": a.id, "kind": a.spanKind}
		if a.root != 0 {
			r.Args["root"] = a.root
		}
		if a.missed {
			r.Args["missed"] = true
		}
		if a.aborted {
			r.Args["aborted"] = true
		}
	case nameArgs:
		r.Args = map[string]any{"name": a.name}
	case sortIndexArgs:
		r.Args = map[string]any{"sort_index": a.sortIndex}
	}
	return r
}

// oddStrings and oddFloats are the escaping and formatting edge cases
// every encoder is checked on.
var (
	oddStrings = []string{"", "G1.s2", "<b>&amp;</b>", "q\"uo\\te", "\x00\x01\x1f\x7f\b\f\n\r\t",
		"\xff\xfe", "ok\xc3", "sep\u2028\u2029", "h\u00e9llo \U0001f642"}
	oddFloats = []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 1e-7, -1e-7, 1.5e-10,
		1e20, 1e21, -1e21, 1e300, 5e-324, 2.2250738585072014e-308, 18894399.502410095}
)

// TestTreeEncodingMatchesMarshal checks appendTree against the reference
// on the fixture forest and on trees whose names and instants hit every
// escaping and float-format edge case.
func TestTreeEncodingMatchesMarshal(t *testing.T) {
	check := func(tr *Tree) {
		t.Helper()
		want, err := refTreeLine(tr)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteTree(&got, tr); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("tree line drifted:\ngot:  %s\nwant: %s", got.Bytes(), want)
		}
	}
	for _, tr := range Build(fixture()).Trees {
		check(tr)
	}
	for i, s := range oddStrings {
		f := oddFloats[i%len(oddFloats)]
		g := oddFloats[(i+3)%len(oddFloats)]
		recs := []obs.Record{
			span(i, 5, 0, "global", s, -1, f, f),
			span(i, 6, 5, s, s, 2, g, g-1), // open: end < start leaves End nil
			edge(i, "parent", 5, 6, 5, f),
			edge(i, s, 5, 6, 5, g),
		}
		recs[1].Missed, recs[1].Aborted = true, i%2 == 0
		for _, tr := range Build(recs).Trees {
			check(tr)
		}
	}
}

// TestChromeEventMatchesMarshal checks appendChromeEvent against the
// reference on every args shape, anonymous labels, odd strings and the
// float cutoffs, including a zero duration of either sign (omitted).
func TestChromeEventMatchesMarshal(t *testing.T) {
	var evs []chromeEvent
	for i, s := range oddStrings {
		f := oddFloats[i%len(oddFloats)]
		evs = append(evs,
			chromeEvent{name: s, cat: s, ph: "X", ts: f, dur: oddFloats[(i+1)%len(oddFloats)], pid: i - 1, tid: i,
				args: chromeArgs{kind: spanArgs, id: uint64(i), root: uint64(i % 3), spanKind: s, missed: i%2 == 0, aborted: i%3 == 0}},
			chromeEvent{name: s, anonID: uint64(i + 1), cat: "global", ph: "b", ts: f, id: uint64(i + 7),
				args: chromeArgs{kind: spanArgs, id: math.MaxUint64, spanKind: "global", aborted: true}},
			chromeEvent{name: s, ph: "f", bp: s, ts: f, id: uint64(i)},
			chromeEvent{name: "process_name", ph: "M", pid: i, args: chromeArgs{kind: nameArgs, name: s}},
			chromeEvent{name: "process_sort_index", ph: "M", pid: -i, args: chromeArgs{kind: sortIndexArgs, sortIndex: -i}},
		)
	}
	for i := range evs {
		want, err := json.Marshal(evs[i].ref())
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendChromeEvent([]byte("x"), &evs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got[1:]) != string(want) {
			t.Errorf("event %d drifted:\ngot:  %s\nwant: %s", i, got[1:], want)
		}
	}
}

// TestEncodersRejectNonFinite: a NaN or infinite instant fails the
// export with an error, as json.Marshal does, instead of writing
// invalid JSON or panicking.
func TestEncodersRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, ev := range []chromeEvent{{ph: "X", ts: bad}, {ph: "X", ts: 1, dur: bad}} {
			if _, err := json.Marshal(ev.ref()); err == nil {
				t.Fatalf("oracle accepted %v", bad)
			}
			if _, err := appendChromeEvent(nil, &ev); err == nil {
				t.Errorf("chrome event with %v encoded", bad)
			}
		}
		recs := []obs.Record{
			span(0, 1, 0, "global", "G", -1, 0, 1),
			span(0, 2, 1, "subtask", "G.a", 0, 0, 1),
			edge(0, "pred", 1, 2, 1, bad),
		}
		if err := Build(recs).WriteTrees(&bytes.Buffer{}); err == nil {
			t.Errorf("tree with link at %v encoded", bad)
		}
		recs[1].End = obs.F(bad)
		if err := Build(recs).WriteChrome(&bytes.Buffer{}); err == nil {
			t.Errorf("chrome export with end %v encoded", bad)
		}
		recs[0].Start = obs.F(bad)
		if err := Build(recs[:1]).WriteTrees(&bytes.Buffer{}); err == nil {
			t.Errorf("tree with start %v encoded", bad)
		}
	}
}
