package tracetree

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/jsonenc"
	"repro/internal/par"
)

// Chrome trace-event export. The forest renders as one Perfetto-loadable
// JSON document:
//
//   - one process per (replication, node) pair — pid = rep*stride+node+1,
//     named "repR/nodeN" — plus a slot-0 process per replication
//     ("repR/globals") carrying the manager-side spans;
//   - within a node process, spans are laid out on occupancy lanes
//     (tids): spans on one node overlap whenever more than one subtask is
//     resident (a span covers release→finish, queue wait included), so
//     each span takes the lowest lane whose previous span has already
//     ended. Lane count ≈ peak occupancy, an upper bound on the server
//     count actually busy;
//   - leaf spans (node >= 0, finished) are "X" complete events; global
//     roots, composite stages and injection markers are "b"/"e" async
//     pairs on the globals process, keyed by their own span id;
//   - causal links (pred / retry / abort / inject) become "s"/"f" flow
//     events anchored at the link instant on the endpoint spans' tracks.
//
// Timestamps are simulation units scaled ×1000 (displayTimeUnit "ms":
// one simulation time unit reads as 1ms, with microsecond resolution
// preserved).

// chromeEvent is one trace event. Its encoding (appendChromeEvent)
// is what json.Marshal writes for the struct with JSON keys name, cat,
// ph, ts, dur, pid, tid, id, bp, args — name, cat, dur, id, bp and args
// omitted when empty.
type chromeEvent struct {
	name   string // event name; with anonID set, the kind of an unnamed span
	anonID uint64 // nonzero: the name renders as "<name>#<anonID>"
	cat    string
	ph     string
	ts     float64
	dur    float64
	pid    int
	tid    int
	id     uint64 // async/flow id, rendered as a decimal string; 0 = absent
	bp     string
	args   chromeArgs
}

// argsKind selects which keys an event's "args" object carries.
type argsKind uint8

const (
	noArgs        argsKind = iota
	spanArgs               // id, kind; root, missed, aborted when set
	nameArgs               // process_name metadata: name
	sortIndexArgs          // process_sort_index metadata: sort_index
)

// chromeArgs is an event's "args" object. It renders its keys in
// sorted order, the order json.Marshal gives a map's keys.
type chromeArgs struct {
	kind            argsKind
	id, root        uint64
	spanKind        string
	missed, aborted bool
	name            string
	sortIndex       int
}

// spanArgsOf returns the args of a span's slice or async event.
func spanArgsOf(sp *obs.Record) chromeArgs {
	return chromeArgs{
		kind: spanArgs, id: sp.ID, root: sp.Root, spanKind: sp.Kind,
		missed: sp.Missed, aborted: sp.Aborted,
	}
}

// appendChromeEvent appends ev's JSON object to dst. It fails on a NaN
// or infinite timestamp, as json.Marshal would.
func appendChromeEvent(dst []byte, ev *chromeEvent) ([]byte, error) {
	dst = append(dst, '{')
	if ev.name != "" || ev.anonID != 0 {
		dst = append(dst, `"name":`...)
		dst = jsonenc.String(dst, ev.name)
		if ev.anonID != 0 {
			dst = append(dst[:len(dst)-1], '#')
			dst = strconv.AppendUint(dst, ev.anonID, 10)
			dst = append(dst, '"')
		}
		dst = append(dst, ',')
	}
	if ev.cat != "" {
		dst = append(dst, `"cat":`...)
		dst = jsonenc.String(dst, ev.cat)
		dst = append(dst, ',')
	}
	dst = append(dst, `"ph":`...)
	dst = jsonenc.String(dst, ev.ph)
	dst = append(dst, `,"ts":`...)
	var err error
	if dst, err = jsonenc.Float(dst, ev.ts); err != nil {
		return dst, err
	}
	if ev.dur != 0 {
		dst = append(dst, `,"dur":`...)
		if dst, err = jsonenc.Float(dst, ev.dur); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"pid":`...)
	dst = strconv.AppendInt(dst, int64(ev.pid), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(ev.tid), 10)
	if ev.id != 0 {
		dst = append(dst, `,"id":"`...)
		dst = strconv.AppendUint(dst, ev.id, 10)
		dst = append(dst, '"')
	}
	if ev.bp != "" {
		dst = append(dst, `,"bp":`...)
		dst = jsonenc.String(dst, ev.bp)
	}
	a := &ev.args
	switch a.kind {
	case spanArgs:
		dst = append(dst, `,"args":{`...)
		if a.aborted {
			dst = append(dst, `"aborted":true,`...)
		}
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, a.id, 10)
		dst = append(dst, `,"kind":`...)
		dst = jsonenc.String(dst, a.spanKind)
		if a.missed {
			dst = append(dst, `,"missed":true`...)
		}
		if a.root != 0 {
			dst = append(dst, `,"root":`...)
			dst = strconv.AppendUint(dst, a.root, 10)
		}
		dst = append(dst, '}')
	case nameArgs:
		dst = append(dst, `,"args":{"name":`...)
		dst = jsonenc.String(dst, a.name)
		dst = append(dst, '}')
	case sortIndexArgs:
		dst = append(dst, `,"args":{"sort_index":`...)
		dst = strconv.AppendInt(dst, int64(a.sortIndex), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

const tsScale = 1000 // simulation units → microseconds (1 unit = 1ms)

// chromeLayout places the forest's spans on Chrome processes and lanes.
type chromeLayout struct {
	stride int
	lane   []int32      // occupancy lane (tid) of each leaf span, by index in Forest.all
	procs  []chromeProc // every process an event lands on, by pid
}

// chromeProc is one Chrome process: a replication's node, or with node
// -1 its globals slot.
type chromeProc struct{ pid, rep, node int }

// name returns the process's display name.
func (p chromeProc) name() string {
	if p.node < 0 {
		return fmt.Sprintf("rep%d/globals", p.rep)
	}
	return fmt.Sprintf("rep%d/node%d", p.rep, p.node)
}

// layout assigns every drawn leaf span its occupancy lane and lists the
// processes the events land on. The lanes of each (rep, node) group are
// independent, so the groups are laid out on the shared pool.
func (f *Forest) layout() chromeLayout {
	maxNode := 0
	for i := range f.all {
		if f.all[i].Span.Node > maxNode {
			maxNode = f.all[i].Span.Node
		}
	}
	l := chromeLayout{stride: maxNode + 2, lane: make([]int32, len(f.all))}

	// The drawn leaf spans grouped by node, and within a node in
	// Forest.all order, which is (rep, id): each (rep, node) group is a
	// run of order, in the order its spans appear in the forest. The
	// groups need not be in node order (each is laned on its own, and
	// the process list is sorted by pid), so a counting sort over node
	// numbers dense in order of first appearance groups them in linear
	// time whatever the node ids. Until the lanes are assigned, l.lane[i]
	// holds span i's dense node number, or -1 when span i is not drawn.
	// The globals process of a replication is used when any of its spans
	// off the nodes is drawn.
	dense := make(map[int]int32)
	lastGlobals := 0
	drawn := 0
	for i := range f.all {
		sp := &f.all[i].Span
		l.lane[i] = -1
		switch {
		case sp.Node >= 0 && sp.Start != nil:
			d, ok := dense[sp.Node]
			if !ok {
				d = int32(len(dense))
				dense[sp.Node] = d
			}
			l.lane[i] = d
			drawn++
		case sp.Start != nil && (len(l.procs) == 0 || sp.Rep != lastGlobals):
			l.procs = append(l.procs, chromeProc{pid: l.pid(sp.Rep, -1), rep: sp.Rep, node: -1})
			lastGlobals = sp.Rep
		}
	}
	at := make([]int32, len(dense)+1)
	for _, d := range l.lane {
		if d >= 0 {
			at[d+1]++
		}
	}
	for d := 1; d < len(at); d++ {
		at[d] += at[d-1]
	}
	order := make([]int32, drawn)
	for i, d := range l.lane {
		if d < 0 {
			l.lane[i] = 0 // not drawn: no lane
			continue
		}
		order[at[d]] = int32(i)
		at[d]++
	}
	var bounds []int // group g is order[bounds[g]:bounds[g+1]]
	widest := 0      // the most spans in one group
	for k, i := range order {
		sp := &f.all[i].Span
		if k > 0 {
			if prev := &f.all[order[k-1]].Span; prev.Node == sp.Node && prev.Rep == sp.Rep {
				continue
			}
			widest = max(widest, k-bounds[len(bounds)-1])
		}
		bounds = append(bounds, k)
		l.procs = append(l.procs, chromeProc{pid: l.pid(sp.Rep, sp.Node), rep: sp.Rep, node: sp.Node})
	}
	if len(bounds) > 0 {
		widest = max(widest, len(order)-bounds[len(bounds)-1])
	}
	bounds = append(bounds, len(order))
	slices.SortFunc(l.procs, func(a, b chromeProc) int { return cmp.Compare(a.pid, b.pid) })

	// Occupancy lanes per group: spans sorted by (start, id), each taking
	// the lowest lane free at its start. Worker w lays out groups w,
	// w+workers, ..., sorting each group's keys in one buffer of the
	// widest group's size.
	groups := len(bounds) - 1
	workers := min(runtime.GOMAXPROCS(0), groups)
	par.Map(0, workers, func(w int) error {
		keys := make(laneKeys, 0, widest)
		var lanes []float64 // end time of the last span on each lane
		for g := w; g < groups; g += workers {
			keys = keys.of(f.all, order[bounds[g]:bounds[g+1]])
			sort.Sort(keys)
			lanes = lanes[:0]
			for _, k := range keys {
				end := k.start
				if e := f.all[k.i].Span.End; e != nil {
					end = *e
				}
				placed := -1
				for j := range lanes {
					if lanes[j] <= k.start {
						placed = j
						break
					}
				}
				if placed < 0 {
					placed = len(lanes)
					lanes = append(lanes, 0)
				}
				lanes[placed] = end
				l.lane[k.i] = int32(placed)
			}
		}
		return nil
	})
	return l
}

// laneKey is the sort key of one drawn span: its start, its id and its
// index in Forest.all. Sorting keys copied out of the records keeps the
// comparisons off the records themselves.
type laneKey struct {
	start float64
	id    uint64
	i     int32
}

// laneKeys sorts a group's spans by (start, id). Its Less reads the
// values the records hold, so sort.Sort makes the same comparisons and
// swaps, and leaves the same order, as over the records themselves,
// ties and NaN starts included.
type laneKeys []laneKey

// of refills the keys with those of the spans all[i] for i in g, in g's
// order, reusing their storage.
func (k laneKeys) of(all []Node, g []int32) laneKeys {
	k = k[:0]
	for _, i := range g {
		sp := &all[i].Span
		k = append(k, laneKey{start: *sp.Start, id: sp.ID, i: i})
	}
	return k
}

func (k laneKeys) Len() int      { return len(k) }
func (k laneKeys) Swap(i, j int) { k[i], k[j] = k[j], k[i] }
func (k laneKeys) Less(i, j int) bool {
	if k[i].start != k[j].start {
		return k[i].start < k[j].start
	}
	return k[i].id < k[j].id
}

// pid returns the Chrome process id for a replication/node pair; node -1
// is the globals slot.
func (l *chromeLayout) pid(rep, node int) int { return rep*l.stride + node + 1 }

// track returns where span all[i] is drawn: leaf spans on their node
// process and occupancy lane, everything else on the replication's
// globals process.
func (l *chromeLayout) track(sp *obs.Record, i int) (pid, tid int) {
	if sp.Node >= 0 {
		return l.pid(sp.Rep, sp.Node), int(l.lane[i])
	}
	return l.pid(sp.Rep, -1), 0
}

// WriteChrome writes the forest as a Chrome trace-event JSON document.
// The output is deterministic: events are emitted in (rep, span id)
// order, flows in tree order, metadata last. Each section is encoded on
// every core in chunks of par.EncodeChunk spans, trees or processes and
// written in order, so the bytes do not depend on GOMAXPROCS.
func (f *Forest) WriteChrome(w io.Writer) error {
	l := f.layout()
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	ev := &eventStream{w: w}
	err := encodeOrdered(ev, len(f.all), func(dst []byte, lo, hi int) ([]byte, error) {
		return f.appendSpanEvents(dst, &l, lo, hi)
	})
	if err != nil {
		return err
	}
	if err := f.writeFlows(ev, &l); err != nil {
		return err
	}
	err = encodeOrdered(ev, len(l.procs), func(dst []byte, lo, hi int) ([]byte, error) {
		var err error
		for _, p := range l.procs[lo:hi] {
			if dst, err = appendEvent(dst, &chromeEvent{
				name: "process_name", ph: "M", pid: p.pid,
				args: chromeArgs{kind: nameArgs, name: p.name()},
			}); err != nil {
				return dst, err
			}
			if dst, err = appendEvent(dst, &chromeEvent{
				name: "process_sort_index", ph: "M", pid: p.pid,
				args: chromeArgs{kind: sortIndexArgs, sortIndex: p.pid},
			}); err != nil {
				return dst, err
			}
		}
		return dst, nil
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, "]}\n")
	return err
}

// appendSpanEvents appends the events of spans all[lo:hi]: a complete
// event per finished leaf span, an async begin (and end, once finished)
// per span off the nodes.
func (f *Forest) appendSpanEvents(dst []byte, l *chromeLayout, lo, hi int) ([]byte, error) {
	var err error
	for i := lo; i < hi; i++ {
		sp := &f.all[i].Span
		if sp.Start == nil {
			continue
		}
		// Synthetic workloads leave task names empty; label slices by
		// kind and span id so Perfetto still shows something clickable.
		name, anonID := sp.Task, uint64(0)
		if name == "" {
			name, anonID = sp.Kind, sp.ID
		}
		pid, tid := l.track(sp, i)
		if sp.Node >= 0 {
			if sp.End == nil {
				continue // still open at the horizon: no duration to draw
			}
			if dst, err = appendEvent(dst, &chromeEvent{
				name: name, anonID: anonID, cat: sp.Kind, ph: "X",
				ts: *sp.Start * tsScale, dur: (*sp.End - *sp.Start) * tsScale,
				pid: pid, tid: tid, args: spanArgsOf(sp),
			}); err != nil {
				return dst, err
			}
			continue
		}
		if dst, err = appendEvent(dst, &chromeEvent{
			name: name, anonID: anonID, cat: sp.Kind, ph: "b",
			ts: *sp.Start * tsScale, pid: pid, tid: 0, id: sp.ID, args: spanArgsOf(sp),
		}); err != nil {
			return dst, err
		}
		if sp.End != nil {
			if dst, err = appendEvent(dst, &chromeEvent{
				name: name, anonID: anonID, cat: sp.Kind, ph: "e",
				ts: *sp.End * tsScale, pid: pid, tid: 0, id: sp.ID,
			}); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// writeFlows writes the flow events: one s/f pair per causal link whose
// endpoints are both in the forest, anchored at the link instant and
// numbered in tree order. The source anchor clamps into the causing span
// so Perfetto binds the flow to that slice.
//
// The flows of a chunk of trees are numbered on from base, the links
// that resolve in the chunks before it: one pass on the shared pool
// counts them per chunk, then the chunks encode in parallel.
func (f *Forest) writeFlows(w io.Writer, l *chromeLayout) error {
	chunks := (len(f.Trees) + par.EncodeChunk - 1) / par.EncodeChunk
	base := make([]int, chunks+1)
	par.Map(0, chunks, func(c int) error {
		lo := c * par.EncodeChunk
		for _, tr := range f.Trees[lo:min(lo+par.EncodeChunk, len(f.Trees))] {
			for k := range tr.Links {
				if f.find(tr.Rep, tr.Links[k].From) >= 0 && f.find(tr.Rep, tr.Links[k].To) >= 0 {
					base[c+1]++
				}
			}
		}
		return nil
	})
	for c := range chunks {
		base[c+1] += base[c]
	}
	return encodeOrdered(w, len(f.Trees), func(dst []byte, lo, hi int) ([]byte, error) {
		return f.appendFlows(dst, l, lo, hi, base[lo/par.EncodeChunk])
	})
}

// appendFlows appends the flow events of the links of trees lo..hi-1,
// numbering them on from flow. A link whose endpoints are not both in
// the forest is skipped.
func (f *Forest) appendFlows(dst []byte, l *chromeLayout, lo, hi, flow int) ([]byte, error) {
	for _, tr := range f.Trees[lo:hi] {
		for k := range tr.Links {
			lk := &tr.Links[k]
			fi, ti := f.find(tr.Rep, lk.From), f.find(tr.Rep, lk.To)
			if fi < 0 || ti < 0 {
				continue
			}
			from, to := &f.all[fi].Span, &f.all[ti].Span
			flow++
			sTs := lk.At
			if from.End != nil && sTs > *from.End {
				sTs = *from.End
			}
			fp, ft := l.track(from, fi)
			tp, tt := l.track(to, ti)
			var err error
			if dst, err = appendEvent(dst, &chromeEvent{
				name: lk.Kind, cat: "causal", ph: "s",
				ts: sTs * tsScale, pid: fp, tid: ft, id: uint64(flow),
			}); err != nil {
				return dst, err
			}
			if dst, err = appendEvent(dst, &chromeEvent{
				name: lk.Kind, cat: "causal", ph: "f", bp: "e",
				ts: lk.At * tsScale, pid: tp, tid: tt, id: uint64(flow),
			}); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// eventSep separates the events of the traceEvents array. appendEvent
// starts every event with it, and eventStream drops it from the first.
const eventSep = ",\n"

// appendEvent appends ev to dst, separator first. On failure dst comes
// back at its original length.
func appendEvent(dst []byte, ev *chromeEvent) ([]byte, error) {
	mark := len(dst)
	b, err := appendChromeEvent(append(dst, eventSep...), ev)
	if err != nil {
		return b[:mark], fmt.Errorf("tracetree: marshal chrome event: %w", err)
	}
	return b, nil
}

// eventStream passes the traceEvents array to w, dropping the separator
// the first event starts with.
type eventStream struct {
	w       io.Writer
	started bool
}

func (s *eventStream) Write(p []byte) (int, error) {
	b := p
	if !s.started && len(b) > 0 {
		s.started, b = true, b[len(eventSep):]
	}
	if _, err := s.w.Write(b); err != nil {
		return 0, err
	}
	return len(p), nil
}

// encodeOrdered writes n items through par.Encode. A failing write
// comes back as the writer's own error, as from the serial exports.
func encodeOrdered(w io.Writer, n int, enc func(dst []byte, lo, hi int) ([]byte, error)) error {
	err := par.Encode(w, n, enc)
	if we, ok := err.(*par.WriteError); ok {
		return we.Err
	}
	return err
}
