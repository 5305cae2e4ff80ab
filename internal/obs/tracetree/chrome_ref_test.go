package tracetree

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// The serial Chrome trace export as it was before its sections were
// encoded in parallel chunks: a map grouping the spans by (rep, node)
// for the lanes, a map naming the processes, one event buffer.

type refLayout struct {
	stride int
	lane   []int32 // occupancy lane (tid) of each leaf span, by index in Forest.all
}

func (f *Forest) refLayout() refLayout {
	maxNode := 0
	for i := range f.all {
		if f.all[i].Span.Node > maxNode {
			maxNode = f.all[i].Span.Node
		}
	}
	l := refLayout{stride: maxNode + 2, lane: make([]int32, len(f.all))}

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
func (l refLayout) pid(rep, node int) int { return rep*l.stride + node + 1 }

// track returns where span all[i] is drawn: leaf spans on their node
// process and occupancy lane, everything else on the replication's
// globals process.
func (l refLayout) track(sp *obs.Record, i int) (pid, tid int) {
	if sp.Node >= 0 {
		return l.pid(sp.Rep, sp.Node), int(l.lane[i])
	}
	return l.pid(sp.Rep, -1), 0
}

// RefWriteChrome is the serial Chrome export WriteChrome replaced, kept
// as the oracle its output must match byte for byte.
func (f *Forest) RefWriteChrome(w io.Writer) error {
	l := f.refLayout()
	ew := &refEventWriter{w: w}
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

// refEventWriter streams the traceEvents array through one buffer.
type refEventWriter struct {
	w     io.Writer
	buf   []byte
	wrote bool
}

const refChromeChunk = 32 << 10

func (e *refEventWriter) open() error {
	e.buf = append(e.buf[:0], `{"displayTimeUnit":"ms","traceEvents":[`...)
	return nil
}

func (e *refEventWriter) emit(ev *chromeEvent) error {
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
	if len(e.buf) >= refChromeChunk {
		return e.flush()
	}
	return nil
}

func (e *refEventWriter) flush() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

func (e *refEventWriter) close() error {
	e.buf = append(e.buf, "]}\n"...)
	return e.flush()
}
