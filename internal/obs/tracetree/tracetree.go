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
	// Chrome export draws locals and injection markers too.
	all   []*Node
	byKey map[spanKey]*Node
	trees map[spanKey]*Tree
}

type spanKey struct {
	rep int
	id  uint64
}

// Build assembles a forest from a record stream: span records become
// nodes, "parent" edges define nesting, every other edge kind becomes a
// link on the tree of its target span. Records of other types (point
// events) are ignored. The input order does not matter beyond tie-break
// stability; the output is fully sorted.
func Build(recs []obs.Record) *Forest {
	f := &Forest{byKey: make(map[spanKey]*Node), trees: make(map[spanKey]*Tree)}
	var edges []obs.Record
	for i := range recs {
		switch recs[i].Type {
		case "span":
			k := spanKey{recs[i].Rep, recs[i].ID}
			if _, dup := f.byKey[k]; dup {
				continue
			}
			n := &Node{Span: recs[i]}
			f.byKey[k] = n
			f.all = append(f.all, n)
		case "edge":
			edges = append(edges, recs[i])
		}
	}
	sort.Slice(f.all, func(i, j int) bool {
		a, b := f.all[i].Span, f.all[j].Span
		if a.Rep != b.Rep {
			return a.Rep < b.Rep
		}
		return a.ID < b.ID
	})

	// Split the edge stream: structural parentage vs causal links. Edges
	// with a missing endpoint are dropped — deterministically, because
	// the retained span set is itself deterministic.
	parent := make(map[spanKey]spanKey)
	var links []obs.Record
	for _, e := range edges {
		fk, tk := spanKey{e.Rep, e.From}, spanKey{e.Rep, e.ID}
		if f.byKey[fk] == nil || f.byKey[tk] == nil {
			f.Dropped++
			continue
		}
		if e.Kind == "parent" {
			parent[tk] = fk
		} else {
			links = append(links, e)
		}
	}

	// One tree per global root span.
	for _, n := range f.all {
		if n.Span.Kind != "global" {
			continue
		}
		t := &Tree{Rep: n.Span.Rep, Root: n, Spans: 1}
		f.trees[spanKey{n.Span.Rep, n.Span.ID}] = t
		f.Trees = append(f.Trees, t)
	}

	// Attach every non-root span under its structural parent, defaulting
	// to the tree root when no parent edge survived (evicted parent span,
	// or a resubmitted trial, whose retry link still records the cause).
	for _, n := range f.all {
		sp := n.Span
		if sp.Kind == "global" {
			continue
		}
		k := spanKey{sp.Rep, sp.ID}
		t := f.trees[spanKey{sp.Rep, sp.Root}]
		if t == nil {
			f.Orphans++
			continue
		}
		p := t.Root
		if pk, ok := parent[k]; ok {
			if pn := f.byKey[pk]; pn != nil && (pn.Span.Root == sp.Root || pn.Span.ID == sp.Root) {
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

	// Links land on the tree of their target span.
	for _, e := range links {
		tn := f.byKey[spanKey{e.Rep, e.ID}]
		rootID := tn.Span.Root
		if tn.Span.Kind == "global" {
			rootID = tn.Span.ID
		}
		t := f.trees[spanKey{e.Rep, rootID}]
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
	return f
}

// Tree returns the tree rooted at the given replication and root span
// id, or nil.
func (f *Forest) Tree(rep int, rootID uint64) *Tree {
	return f.trees[spanKey{rep, rootID}]
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
