package task

import (
	"fmt"
	"sort"
	"strings"
)

// ParseDag reads a precedence DAG in a flat spec notation built on the
// tree leaf syntax:
//
//	dag  := leaf (leaf)* [';' edge (edge)*]
//	edge := name '>' name
//	leaf := name ['@' node] [':' ex ['/' pex]]
//
// Examples:
//
//	"a b c ; a>b a>c"              a fork: a before b and c
//	"a@0:1 b@1:2/3 ; a>b"          with node placement and pex
//	"a b c"                        three independent subtasks (no edges)
//
// Node names must be unique (edges reference them by name). The result
// round-trips with Dag.String, which emits the same notation with edges
// sorted by (from, to) vertex id.
func ParseDag(input string) (*Dag, error) {
	d, _, err := parseDagSpec(input, false)
	return d, err
}

// MustParseDag is ParseDag, panicking on error; for tests and examples.
func MustParseDag(input string) *Dag {
	d, err := ParseDag(input)
	if err != nil {
		panic(err)
	}
	return d
}

// parseDagSpec parses the DAG notation shared by ParseDag and
// ParseCondDag: the leaves, then after ';' the edges. Only withProbs
// accepts a ":prob" annotation on an edge; probs[id] then lists the
// annotation of each out-edge of vertex id in succs order, -1 where an
// edge carries none, so the caller can check the all-or-none rule.
func parseDagSpec(input string, withProbs bool) (d *Dag, probs [][]float64, err error) {
	p := &parser{src: input}
	d = NewDag("")
	byName := make(map[string]*DagNode)
	for p.skipSpace(); p.pos < len(p.src) && p.peek() != ';'; p.skipSpace() {
		t, err := p.parseLeaf()
		if err != nil {
			return nil, nil, err
		}
		if _, dup := byName[t.Name]; dup {
			return nil, nil, fmt.Errorf("%w: %q", ErrDupName, t.Name)
		}
		n, err := d.AddTask(t)
		if err != nil {
			return nil, nil, err
		}
		byName[t.Name] = n
	}
	if withProbs {
		probs = make([][]float64, len(d.nodes))
	}
	if p.peek() == ';' {
		p.pos++
		for p.skipSpace(); p.pos < len(p.src); p.skipSpace() {
			from, err := p.parseEdgeName(byName)
			if err != nil {
				return nil, nil, err
			}
			if p.peek() != '>' {
				return nil, nil, p.errf("expected '>' in edge")
			}
			p.pos++
			to, err := p.parseEdgeName(byName)
			if err != nil {
				return nil, nil, err
			}
			if err := d.AddEdge(from, to); err != nil {
				return nil, nil, err
			}
			if !withProbs {
				continue
			}
			pr := -1.0
			if p.peek() == ':' {
				p.pos++
				f, err := p.parseFloat()
				if err != nil {
					return nil, nil, err
				}
				if f <= 0 || f > 1 {
					return nil, nil, fmt.Errorf("%w: %q -> %q has probability %v (offset %d)",
						ErrBranchProb, from.Task.Name, to.Task.Name, f, p.pos)
				}
				pr = f
			}
			probs[from.id] = append(probs[from.id], pr)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	return d, probs, nil
}

// parseEdgeName scans a node name and resolves it against the DAG.
func (p *parser) parseEdgeName(byName map[string]*DagNode) (*DagNode, error) {
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errf("expected node name in edge")
	}
	name := p.src[start:p.pos]
	n, ok := byName[name]
	if !ok {
		return nil, p.errf("edge references unknown node %q", name)
	}
	return n, nil
}

// String renders the DAG in the ParseDag notation: leaves in id order,
// then "; " and the edges sorted by (from, to) id. The output re-parses
// to an identical DAG when node names are unique.
func (d *Dag) String() string { return d.render(func(int) []float64 { return nil }) }

// render writes the DAG in the ParseCondDag notation: leaves in id order,
// then "; " and the edges sorted by (from, to) id. probs returns the
// branch probabilities of vertex id's out-edges in succs order, appended
// as ":prob", or nil for an unconditional vertex.
func (d *Dag) render(probs func(id int) []float64) string {
	var b strings.Builder
	for i, n := range d.nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		n.Task.format(&b)
	}
	if d.edges > 0 {
		type edge struct {
			from, to *DagNode
			prob     float64 // < 0 for unconditional edges
		}
		edges := make([]edge, 0, d.edges)
		for _, n := range d.nodes {
			ps := probs(n.id)
			for si, s := range n.succs {
				pr := -1.0
				if ps != nil {
					pr = ps[si]
				}
				edges = append(edges, edge{n, s, pr})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].from.id != edges[j].from.id {
				return edges[i].from.id < edges[j].from.id
			}
			return edges[i].to.id < edges[j].to.id
		})
		b.WriteString(" ;")
		for _, e := range edges {
			fmt.Fprintf(&b, " %s>%s", e.from.Task.Name, e.to.Task.Name)
			if e.prob >= 0 {
				fmt.Fprintf(&b, ":%g", e.prob)
			}
		}
	}
	return b.String()
}
