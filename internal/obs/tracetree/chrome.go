package tracetree

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/jsonenc"
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

type chromeLayout struct {
	stride int
	lane   []int32 // occupancy lane (tid) of each leaf span, by index in Forest.all
}

func (f *Forest) layout() chromeLayout {
	maxNode := 0
	for i := range f.all {
		if f.all[i].Span.Node > maxNode {
			maxNode = f.all[i].Span.Node
		}
	}
	l := chromeLayout{stride: maxNode + 2, lane: make([]int32, len(f.all))}

	// Occupancy lanes per (rep, node): spans sorted by (start, id), each
	// taking the lowest lane free at its start.
	type group struct{ rep, node int }
	groups := make(map[group][]int) // span indices in Forest.all
	for i := range f.all {
		sp := &f.all[i].Span
		if sp.Node < 0 || sp.Start == nil {
			continue
		}
		k := group{sp.Rep, sp.Node}
		groups[k] = append(groups[k], i)
	}
	var lanes []float64 // end time of the last span on each lane
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool {
			a, b := &f.all[g[i]].Span, &f.all[g[j]].Span
			if *a.Start != *b.Start {
				return *a.Start < *b.Start
			}
			return a.ID < b.ID
		})
		lanes = lanes[:0]
		for _, i := range g {
			sp := &f.all[i].Span
			end := *sp.Start
			if sp.End != nil {
				end = *sp.End
			}
			placed := -1
			for j := range lanes {
				if lanes[j] <= *sp.Start {
					placed = j
					break
				}
			}
			if placed < 0 {
				placed = len(lanes)
				lanes = append(lanes, 0)
			}
			lanes[placed] = end
			l.lane[i] = int32(placed)
		}
	}
	return l
}

// pid returns the Chrome process id for a replication/node pair; node -1
// is the globals slot.
func (l chromeLayout) pid(rep, node int) int { return rep*l.stride + node + 1 }

// track returns where span all[i] is drawn: leaf spans on their node
// process and occupancy lane, everything else on the replication's
// globals process.
func (l chromeLayout) track(sp *obs.Record, i int) (pid, tid int) {
	if sp.Node >= 0 {
		return l.pid(sp.Rep, sp.Node), int(l.lane[i])
	}
	return l.pid(sp.Rep, -1), 0
}

// WriteChrome writes the forest as a Chrome trace-event JSON document.
// The output is deterministic: events are emitted in (rep, span id)
// order, flows in tree order, metadata last.
func (f *Forest) WriteChrome(w io.Writer) error {
	l := f.layout()
	ew := &eventWriter{w: w}
	if err := ew.open(); err != nil {
		return err
	}

	usedPid := make(map[int]string)
	for i := range f.all {
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
			if _, ok := usedPid[pid]; !ok {
				usedPid[pid] = fmt.Sprintf("rep%d/node%d", sp.Rep, sp.Node)
			}
			if sp.End == nil {
				continue // still open at the horizon: no duration to draw
			}
			if err := ew.emit(&chromeEvent{
				name: name, anonID: anonID, cat: sp.Kind, ph: "X",
				ts: *sp.Start * tsScale, dur: (*sp.End - *sp.Start) * tsScale,
				pid: pid, tid: tid, args: spanArgsOf(sp),
			}); err != nil {
				return err
			}
			continue
		}
		if _, ok := usedPid[pid]; !ok {
			usedPid[pid] = fmt.Sprintf("rep%d/globals", sp.Rep)
		}
		if err := ew.emit(&chromeEvent{
			name: name, anonID: anonID, cat: sp.Kind, ph: "b",
			ts: *sp.Start * tsScale, pid: pid, tid: 0, id: sp.ID, args: spanArgsOf(sp),
		}); err != nil {
			return err
		}
		if sp.End != nil {
			if err := ew.emit(&chromeEvent{
				name: name, anonID: anonID, cat: sp.Kind, ph: "e",
				ts: *sp.End * tsScale, pid: pid, tid: 0, id: sp.ID,
			}); err != nil {
				return err
			}
		}
	}

	// Flow events: one s/f pair per causal link, anchored at the link
	// instant. The source anchor clamps into the causing span so Perfetto
	// binds the flow to that slice.
	flow := 0
	for _, t := range f.Trees {
		for _, lk := range t.Links {
			fi, ti := f.find(t.Rep, lk.From), f.find(t.Rep, lk.To)
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
			if err := ew.emit(&chromeEvent{
				name: lk.Kind, cat: "causal", ph: "s",
				ts: sTs * tsScale, pid: fp, tid: ft, id: uint64(flow),
			}); err != nil {
				return err
			}
			if err := ew.emit(&chromeEvent{
				name: lk.Kind, cat: "causal", ph: "f", bp: "e",
				ts: lk.At * tsScale, pid: tp, tid: tt, id: uint64(flow),
			}); err != nil {
				return err
			}
		}
	}

	pids := make([]int, 0, len(usedPid))
	for pid := range usedPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		if err := ew.emit(&chromeEvent{
			name: "process_name", ph: "M", pid: pid,
			args: chromeArgs{kind: nameArgs, name: usedPid[pid]},
		}); err != nil {
			return err
		}
		if err := ew.emit(&chromeEvent{
			name: "process_sort_index", ph: "M", pid: pid,
			args: chromeArgs{kind: sortIndexArgs, sortIndex: pid},
		}); err != nil {
			return err
		}
	}
	return ew.close()
}

// eventWriter streams the traceEvents array, encoding events into one
// buffer it hands to w in chunks, so neither the whole document nor a
// write per event is needed.
type eventWriter struct {
	w     io.Writer
	buf   []byte
	wrote bool
}

// chromeChunk is the buffered size at which eventWriter writes through.
const chromeChunk = 32 << 10

func (e *eventWriter) open() error {
	e.buf = append(e.buf[:0], `{"displayTimeUnit":"ms","traceEvents":[`...)
	return nil
}

func (e *eventWriter) emit(ev *chromeEvent) error {
	mark := len(e.buf)
	if e.wrote {
		e.buf = append(e.buf, ",\n"...)
	}
	b, err := appendChromeEvent(e.buf, ev)
	if err != nil {
		e.buf = b[:mark]
		return fmt.Errorf("tracetree: marshal chrome event: %w", err)
	}
	e.buf = b
	e.wrote = true
	if len(e.buf) >= chromeChunk {
		return e.flush()
	}
	return nil
}

func (e *eventWriter) flush() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

func (e *eventWriter) close() error {
	e.buf = append(e.buf, "]}\n"...)
	return e.flush()
}
