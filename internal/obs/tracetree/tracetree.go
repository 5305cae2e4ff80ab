// Package tracetree assembles the telemetry span stream and the causal
// edge stream (obs schema v3) into per-global-task trace trees: one tree
// per resolved or in-flight global root, nested by the structural
// "parent" edges the process manager emits, with the non-structural
// causality (predecessor-finish releases, local-abort retries, deadline
// abort cascades, chaos-burst injections) attached as links.
//
// The assembly is a pure function of its input records. Under span-ring
// eviction the degradation is deterministic: an edge whose endpoint span
// was evicted is dropped (and counted), a span whose root span was
// evicted becomes an orphan (and is counted), and everything retained
// assembles identically no matter how many workers produced the shards —
// the exported JSONL and Chrome trace are byte-stable.
//
// Two exports: WriteTrees renders one JSON document per tree per line
// (the deterministic machine-readable form), WriteChrome renders the
// whole forest as a Chrome trace-event file loadable in Perfetto (one
// process per replication-node pair, flow events for causal links).
package tracetree

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/jsonenc"
)

// Link is one non-structural causal edge inside a tree: kind pred,
// retry, abort or inject, pointing from span From to span To at instant
// At.
type Link struct {
	Kind string
	From uint64
	To   uint64
	At   float64
}

// Node is one span in a trace tree. Children are sorted by span id,
// which is release order within a replication.
type Node struct {
	Span     obs.Record
	Children []*Node
}

// Tree is the causal trace of one global task: the root span, its
// descendants nested by structural parentage, and the causal links among
// them.
type Tree struct {
	Rep   int
	Root  *Node
	Links []Link
	Spans int // total spans in the tree, including the root
}

// Walk visits every node of the tree depth-first, parents before
// children, siblings in span-id order.
func (t *Tree) Walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(t.Root, 0)
}

// Find returns the tree node with the given span id, or nil.
func (t *Tree) Find(id uint64) *Node {
	var hit *Node
	t.Walk(func(n *Node, _ int) {
		if n.Span.ID == id {
			hit = n
		}
	})
	return hit
}

// Forest is the assembled set of trace trees plus the spans that belong
// to no tree (local tasks, injection markers, spans whose root was
// evicted).
type Forest struct {
	// Trees in (replication, root span id) order.
	Trees []*Tree

	// Orphans counts spans that could not be placed in any tree; Dropped
	// counts edges discarded because an endpoint span was missing from
	// the input (ring eviction, or an abort edge to a never-spanned
	// vertex that telemetry already filtered).
	Orphans int
	Dropped int

	// all holds every input span as a Node, in (rep, id) order — the
	// Chrome export draws locals and injection markers too — and spans
	// are looked up in it by binary search. tree[i] is the index in
	// Trees of the tree rooted at all[i], or -1.
	all  []Node
	tree []int32
}

// find returns the index in f.all of the span with key (rep, id), or -1.
func (f *Forest) find(rep int, id uint64) int {
	lo, hi := 0, len(f.all)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp := &f.all[mid].Span; sp.Rep < rep || sp.Rep == rep && sp.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.all) && f.all[lo].Span.Rep == rep && f.all[lo].Span.ID == id {
		return lo
	}
	return -1
}

// spanLess orders span records by (rep, id).
func spanLess(a, b *obs.Record) bool {
	if a.Rep != b.Rep {
		return a.Rep < b.Rep
	}
	return a.ID < b.ID
}

// Build assembles a forest from a record stream: span records become
// nodes, "parent" edges define nesting, every other edge kind becomes a
// link on the tree of its target span. Records of other types (point
// events) are ignored, and of several spans with one (rep, id) the
// first wins. The input order does not matter beyond tie-break
// stability; the output is fully sorted.
//
// Build allocates O(1) times, not once per span: the nodes live in one
// slab sorted by (rep, id), spans are found by binary search in it, and
// every node's Children and every tree's Links are carved from one
// backing array each.
func Build(recs []obs.Record) *Forest {
	f := &Forest{}

	// Index the span records in (rep, id) order. A stream already in
	// that order (a merged snapshot's spans) needs no sort.
	nSpans, nEdges := 0, 0
	for i := range recs {
		switch recs[i].Type {
		case "span":
			nSpans++
		case "edge":
			nEdges++
		}
	}
	order := make([]int, 0, nSpans)
	sorted := true
	for i := range recs {
		if recs[i].Type != "span" {
			continue
		}
		if n := len(order); n > 0 && spanLess(&recs[i], &recs[order[n-1]]) {
			sorted = false
		}
		order = append(order, i)
	}
	if !sorted {
		sort.SliceStable(order, func(a, b int) bool { return spanLess(&recs[order[a]], &recs[order[b]]) })
	}
	uniq := order[:0]
	for _, i := range order {
		if n := len(uniq); n > 0 && !spanLess(&recs[uniq[n-1]], &recs[i]) {
			continue // a duplicate (rep, id): the first one wins
		}
		uniq = append(uniq, i)
	}
	f.all = make([]Node, len(uniq))
	for k, i := range uniq {
		f.all[k].Span = recs[i]
	}
	n := len(f.all)

	// Split the edge stream: structural parentage vs causal links. Edges
	// with a missing endpoint are dropped — deterministically, because
	// the retained span set is itself deterministic. up[i] is the span
	// the last surviving parent edge names as i's parent, or -1.
	up := make([]int32, n)
	for i := range up {
		up[i] = -1
	}
	type linkRef struct {
		e        *obs.Record
		to, tree int32 // target span; tree it lands on, or -1
	}
	links := make([]linkRef, 0, nEdges)
	for i := range recs {
		e := &recs[i]
		if e.Type != "edge" {
			continue
		}
		from, to := f.find(e.Rep, e.From), f.find(e.Rep, e.ID)
		if from < 0 || to < 0 {
			f.Dropped++
			continue
		}
		if e.Kind == "parent" {
			up[to] = int32(from)
		} else {
			links = append(links, linkRef{e: e, to: int32(to)})
		}
	}

	// One tree per global root span.
	nTrees := 0
	f.tree = make([]int32, n)
	for i := range f.all {
		f.tree[i] = -1
		if f.all[i].Span.Kind == "global" {
			f.tree[i] = int32(nTrees)
			nTrees++
		}
	}
	trees := make([]Tree, nTrees)
	f.Trees = make([]*Tree, nTrees)
	for i := range f.all {
		if t := f.tree[i]; t >= 0 {
			trees[t] = Tree{Rep: f.all[i].Span.Rep, Root: &f.all[i], Spans: 1}
			f.Trees[t] = &trees[t]
		}
	}

	// Attach every non-root span under its structural parent, defaulting
	// to the tree root when no parent edge survived (evicted parent span,
	// or a resubmitted trial, whose retry link still records the cause).
	// A first pass picks each span's parent (up[i], -1 for roots and
	// orphans) and counts children, a second carves the Children slices
	// from one array and fills them in (rep, id) order — span-id order
	// within a tree.
	kids := make([]int32, n)
	attached := 0
	for i := range f.all {
		sp := &f.all[i].Span
		if sp.Kind == "global" {
			up[i] = -1
			continue
		}
		root := f.find(sp.Rep, sp.Root)
		if root < 0 || f.tree[root] < 0 {
			f.Orphans++
			up[i] = -1
			continue
		}
		p := root
		if pi := up[i]; pi >= 0 {
			if pn := &f.all[pi].Span; pn.Root == sp.Root || pn.ID == sp.Root {
				p = int(pi)
			}
		}
		up[i] = int32(p)
		kids[p]++
		trees[f.tree[root]].Spans++
		attached++
	}
	children := make([]*Node, attached)
	for i, k := range kids {
		if k > 0 {
			f.all[i].Children, children = children[:0:k], children[k:]
		}
	}
	for i, p := range up {
		if p >= 0 {
			f.all[p].Children = append(f.all[p].Children, &f.all[i])
		}
	}

	// Links land on the tree of their target span; the same two passes
	// carve every tree's Links from one array.
	perTree := make([]int32, nTrees)
	kept := 0
	for k := range links {
		tn := &f.all[links[k].to].Span
		rootID := tn.Root
		if tn.Kind == "global" {
			rootID = tn.ID
		}
		t := int32(-1)
		if root := f.find(tn.Rep, rootID); root >= 0 {
			t = f.tree[root]
		}
		if links[k].tree = t; t < 0 {
			f.Dropped++
			continue
		}
		perTree[t]++
		kept++
	}
	linkArr := make([]Link, kept)
	for t, k := range perTree {
		if k > 0 {
			trees[t].Links, linkArr = linkArr[:0:k], linkArr[k:]
		}
	}
	for _, l := range links {
		if l.tree < 0 {
			continue
		}
		at := 0.0
		if l.e.At != nil {
			at = *l.e.At
		}
		t := &trees[l.tree]
		t.Links = append(t.Links, Link{Kind: l.e.Kind, From: l.e.From, To: l.e.ID, At: at})
	}
	var byKey linkOrder
	for t := range trees {
		byKey = trees[t].Links
		sort.Sort(&byKey)
	}
	return f
}

// linkOrder sorts a tree's links by (To, From, Kind).
type linkOrder []Link

func (o *linkOrder) Len() int      { return len(*o) }
func (o *linkOrder) Swap(i, j int) { (*o)[i], (*o)[j] = (*o)[j], (*o)[i] }
func (o *linkOrder) Less(i, j int) bool {
	a, b := &(*o)[i], &(*o)[j]
	if a.To != b.To {
		return a.To < b.To
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Kind < b.Kind
}

// Tree returns the tree rooted at the given replication and root span
// id, or nil.
func (f *Forest) Tree(rep int, rootID uint64) *Tree {
	if i := f.find(rep, rootID); i >= 0 && f.tree[i] >= 0 {
		return f.Trees[f.tree[i]]
	}
	return nil
}

// TreesForTask returns every tree containing a span with the given task
// name — matched against the root first, then any descendant — in
// (replication, root id) order. The live /trace endpoint serves it.
func (f *Forest) TreesForTask(name string) []*Tree {
	var out []*Tree
	for _, t := range f.Trees {
		hit := false
		t.Walk(func(n *Node, _ int) {
			if n.Span.Task == name {
				hit = true
			}
		})
		if hit {
			out = append(out, t)
		}
	}
	return out
}

// --- deterministic JSONL export --------------------------------------------

// appendTree appends one tree as a JSON line: an object with keys rep,
// root, task, spans, tree (the nested span nodes) and links (omitted
// when empty) — the bytes json.Marshal writes for that document.
func appendTree(dst []byte, t *Tree) ([]byte, error) {
	dst = append(dst, `{"rep":`...)
	dst = strconv.AppendInt(dst, int64(t.Rep), 10)
	dst = append(dst, `,"root":`...)
	dst = strconv.AppendUint(dst, t.Root.Span.ID, 10)
	dst = append(dst, `,"task":`...)
	dst = jsonenc.String(dst, t.Root.Span.Task)
	dst = append(dst, `,"spans":`...)
	dst = strconv.AppendInt(dst, int64(t.Spans), 10)
	dst = append(dst, `,"tree":`...)
	dst, err := appendNode(dst, t.Root)
	if err != nil {
		return dst, err
	}
	for i, l := range t.Links {
		if i == 0 {
			dst = append(dst, `,"links":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"kind":`...)
		dst = jsonenc.String(dst, l.Kind)
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendUint(dst, l.From, 10)
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendUint(dst, l.To, 10)
		dst = append(dst, `,"at":`...)
		if dst, err = jsonenc.Float(dst, l.At); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	if len(t.Links) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendNode appends one span node and its subtree: keys id, kind, task,
// node, start, end (absent while open), missed and aborted (absent when
// false) and children (absent on leaves).
func appendNode(dst []byte, n *Node) ([]byte, error) {
	sp := &n.Span
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, sp.ID, 10)
	dst = append(dst, `,"kind":`...)
	dst = jsonenc.String(dst, sp.Kind)
	dst = append(dst, `,"task":`...)
	dst = jsonenc.String(dst, sp.Task)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(sp.Node), 10)
	start := 0.0
	if sp.Start != nil {
		start = *sp.Start
	}
	dst = append(dst, `,"start":`...)
	dst, err := jsonenc.Float(dst, start)
	if err != nil {
		return dst, err
	}
	if sp.End != nil {
		dst = append(dst, `,"end":`...)
		if dst, err = jsonenc.Float(dst, *sp.End); err != nil {
			return dst, err
		}
	}
	if sp.Missed {
		dst = append(dst, `,"missed":true`...)
	}
	if sp.Aborted {
		dst = append(dst, `,"aborted":true`...)
	}
	for i, c := range n.Children {
		if i == 0 {
			dst = append(dst, `,"children":[`...)
		} else {
			dst = append(dst, ',')
		}
		if dst, err = appendNode(dst, c); err != nil {
			return dst, err
		}
	}
	if len(n.Children) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// WriteTree writes one tree as a single JSON line.
func WriteTree(w io.Writer, t *Tree) error {
	_, err := writeTree(w, nil, t)
	return err
}

// writeTree encodes t into buf (reused across calls) and writes it,
// returning the buffer for the next call.
func writeTree(w io.Writer, buf []byte, t *Tree) ([]byte, error) {
	buf, err := appendTree(buf[:0], t)
	if err != nil {
		return buf, fmt.Errorf("tracetree: marshal tree %d/%d: %w", t.Rep, t.Root.Span.ID, err)
	}
	_, err = w.Write(buf)
	return buf, err
}

// WriteFiles writes the trees (WriteTrees) to treePath and the Chrome
// trace (WriteChrome) to chromePath, in that order; an empty path skips
// its file.
func (f *Forest) WriteFiles(treePath, chromePath string) error {
	if treePath != "" {
		if err := obs.WriteFile(treePath, f.WriteTrees); err != nil {
			return err
		}
	}
	if chromePath != "" {
		return obs.WriteFile(chromePath, f.WriteChrome)
	}
	return nil
}

// WriteTrees writes the forest as JSONL: one tree per line, trees in
// (replication, root id) order, children nested by span id. The output
// is a pure function of the input records.
func (f *Forest) WriteTrees(w io.Writer) error {
	var buf []byte
	for _, t := range f.Trees {
		var err error
		if buf, err = writeTree(w, buf, t); err != nil {
			return err
		}
	}
	return nil
}
