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
	p := &parser{src: input}
	d, byName, err := p.parseDagNodes()
	if err != nil {
		return nil, err
	}
	if p.peek() == ';' {
		p.pos++
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				break
			}
			if _, _, err := p.parseDagEdge(d, byName); err != nil {
				return nil, err
			}
		}
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("task: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// MustParseDag is ParseDag, panicking on error; for tests and examples.
func MustParseDag(input string) *Dag {
	d, err := ParseDag(input)
	if err != nil {
		panic(err)
	}
	return d
}

// parseDagNodes parses the leaf list of the DAG notation up to the ';'
// that starts the edge list, or the end of input.
func (p *parser) parseDagNodes() (*Dag, map[string]*DagNode, error) {
	d := NewDag("")
	byName := make(map[string]*DagNode)
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.peek() == ';' {
			return d, byName, nil
		}
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
}

// parseDagEdge parses one "from>to" edge and adds it to d.
func (p *parser) parseDagEdge(d *Dag, byName map[string]*DagNode) (from, to *DagNode, err error) {
	if from, err = p.parseEdgeName(byName); err != nil {
		return nil, nil, err
	}
	if p.peek() != '>' {
		return nil, nil, p.errf("expected '>' in edge")
	}
	p.pos++
	if to, err = p.parseEdgeName(byName); err != nil {
		return nil, nil, err
	}
	return from, to, d.AddEdge(from, to)
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
func (d *Dag) String() string {
	var b strings.Builder
	for i, n := range d.nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		n.Task.format(&b)
	}
	if d.edges > 0 {
		type edge struct{ from, to *DagNode }
		edges := make([]edge, 0, d.edges)
		for _, n := range d.nodes {
			for _, s := range n.succs {
				edges = append(edges, edge{n, s})
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
		}
	}
	return b.String()
}
