package tracetree

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/obs"
)

// refBuild is the map-based Build that the slab-and-binary-search Build
// replaced, kept as the differential reference for FuzzBuild: spans are
// keyed in a map, parentage is a map from child to parent key, and every
// span is its own Node allocation. It returns a Forest holding copies of
// its nodes in (rep, id) order, so the same writers render both.
func refBuild(recs []obs.Record) *Forest {
	type spanKey struct {
		rep int
		id  uint64
	}
	byKey := make(map[spanKey]*Node)
	trees := make(map[spanKey]*Tree)
	f := &Forest{}
	var all []*Node
	var edges []obs.Record
	for i := range recs {
		switch recs[i].Type {
		case "span":
			k := spanKey{recs[i].Rep, recs[i].ID}
			if _, dup := byKey[k]; dup {
				continue
			}
			n := &Node{Span: recs[i]}
			byKey[k] = n
			all = append(all, n)
		case "edge":
			edges = append(edges, recs[i])
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Span, all[j].Span
		if a.Rep != b.Rep {
			return a.Rep < b.Rep
		}
		return a.ID < b.ID
	})

	parent := make(map[spanKey]spanKey)
	var links []obs.Record
	for _, e := range edges {
		fk, tk := spanKey{e.Rep, e.From}, spanKey{e.Rep, e.ID}
		if byKey[fk] == nil || byKey[tk] == nil {
			f.Dropped++
			continue
		}
		if e.Kind == "parent" {
			parent[tk] = fk
		} else {
			links = append(links, e)
		}
	}

	for _, n := range all {
		if n.Span.Kind != "global" {
			continue
		}
		t := &Tree{Rep: n.Span.Rep, Root: n, Spans: 1}
		trees[spanKey{n.Span.Rep, n.Span.ID}] = t
		f.Trees = append(f.Trees, t)
	}

	for _, n := range all {
		sp := n.Span
		if sp.Kind == "global" {
			continue
		}
		k := spanKey{sp.Rep, sp.ID}
		t := trees[spanKey{sp.Rep, sp.Root}]
		if t == nil {
			f.Orphans++
			continue
		}
		p := t.Root
		if pk, ok := parent[k]; ok {
			if pn := byKey[pk]; pn != nil && (pn.Span.Root == sp.Root || pn.Span.ID == sp.Root) {
				p = pn
			}
		}
		p.Children = append(p.Children, n)
		t.Spans++
	}
	for _, t := range f.Trees {
		t.Walk(func(n *Node, _ int) {
			sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Span.ID < n.Children[j].Span.ID })
		})
	}

	for _, e := range links {
		tn := byKey[spanKey{e.Rep, e.ID}]
		rootID := tn.Span.Root
		if tn.Span.Kind == "global" {
			rootID = tn.Span.ID
		}
		t := trees[spanKey{e.Rep, rootID}]
		if t == nil {
			f.Dropped++
			continue
		}
		at := 0.0
		if e.At != nil {
			at = *e.At
		}
		t.Links = append(t.Links, Link{Kind: e.Kind, From: e.From, To: e.ID, At: at})
	}
	for _, t := range f.Trees {
		sort.Slice(t.Links, func(i, j int) bool {
			a, b := t.Links[i], t.Links[j]
			if a.To != b.To {
				return a.To < b.To
			}
			if a.From != b.From {
				return a.From < b.From
			}
			return a.Kind < b.Kind
		})
	}
	sort.Slice(f.Trees, func(i, j int) bool {
		if f.Trees[i].Rep != f.Trees[j].Rep {
			return f.Trees[i].Rep < f.Trees[j].Rep
		}
		return f.Trees[i].Root.Span.ID < f.Trees[j].Root.Span.ID
	})
	f.all = make([]Node, len(all))
	for i, n := range all {
		f.all[i] = *n
	}
	return f
}

// fuzzRecords decodes a record stream from data, four bytes a record,
// over small id, rep and node ranges so that duplicate ids, unknown
// endpoints, self-edges and parent cycles are common.
func fuzzRecords(data []byte) []obs.Record {
	spanKinds := [...]string{"global", "stage", "subtask", "local", "inject"}
	edgeKinds := [...]string{"parent", "pred", "retry", "abort", "inject", "parent"}
	var recs []obs.Record
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0], data[1], data[2], data[3]
		rec := obs.Record{Schema: obs.SchemaVersion, Rep: int(op>>2) % 3, Task: string(rune('a' + a%4))}
		switch op % 4 {
		case 0, 1:
			rec.Type, rec.Kind = "span", spanKinds[a%5]
			rec.ID, rec.Root = uint64(a>>3)%12, uint64(b)%12
			rec.Node = int(b>>4)%4 - 1
			if c&0x20 == 0 {
				rec.Start = obs.F(float64(c % 16))
			}
			if c&0x80 != 0 {
				rec.End = obs.F(float64(c%16) + float64(b%8)/2)
			}
			rec.Missed, rec.Aborted = c&0x40 != 0, a&0x80 != 0
			if a%4 == 3 {
				rec.Task = ""
			}
		case 2:
			rec.Type, rec.Kind = "edge", edgeKinds[int(a)%len(edgeKinds)]
			rec.Node = -1
			rec.From, rec.ID, rec.Root = uint64(a>>3)%12, uint64(b)%12, uint64(b>>4)%12
			if c&0x80 == 0 {
				rec.At = obs.F(float64(c % 32))
			}
		default:
			rec.Type, rec.Kind, rec.At = "event", "enqueue", obs.F(float64(c))
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzBuild pins Build to the map-based reference on arbitrary span and
// edge streams: it must never panic, and the tree JSONL, the Chrome
// trace and the orphan and dropped-edge counts must match.
func FuzzBuild(f *testing.F) {
	var seed []byte
	for _, rec := range fixture() {
		b := []byte{0, byte(rec.ID << 3), byte(rec.Root), 0x80}
		if rec.Type == "edge" {
			b = []byte{2, byte(rec.From << 3), byte(rec.ID), 0}
		}
		seed = append(seed, b...)
	}
	f.Add(seed)
	f.Add([]byte{2, 8, 1, 0, 0, 8, 1, 0x80, 0, 0, 0, 0x80})                     // self-edge
	f.Add([]byte{0, 9, 1, 0, 0, 17, 1, 0, 2, 8, 2, 0, 2, 16, 1, 0, 0, 8, 1, 0}) // parent cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzRecords(data)
		got, want := Build(recs), refBuild(recs)
		if got.Orphans != want.Orphans || got.Dropped != want.Dropped {
			t.Fatalf("orphans %d dropped %d, reference %d %d", got.Orphans, got.Dropped, want.Orphans, want.Dropped)
		}
		render := func(f *Forest) (trees, chrome []byte, errs [2]string) {
			var tb, cb bytes.Buffer
			if err := f.WriteTrees(&tb); err != nil {
				errs[0] = err.Error()
			}
			if err := f.WriteChrome(&cb); err != nil {
				errs[1] = err.Error()
			}
			return tb.Bytes(), cb.Bytes(), errs
		}
		gt, gc, ge := render(got)
		wt, wc, we := render(want)
		if ge != we {
			t.Fatalf("errors %q, reference %q", ge, we)
		}
		if !bytes.Equal(gt, wt) {
			t.Fatalf("tree JSONL differs from the reference:\n%s\nwant\n%s", gt, wt)
		}
		if !bytes.Equal(gc, wc) {
			t.Fatalf("Chrome trace differs from the reference:\n%s\nwant\n%s", gc, wc)
		}
		for _, tr := range got.Trees {
			if got.Tree(tr.Rep, tr.Root.Span.ID) != tr {
				t.Fatalf("Tree(%d, %d) does not find its tree", tr.Rep, tr.Root.Span.ID)
			}
		}
	})
}
