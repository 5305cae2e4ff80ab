package task

import (
	"fmt"
	"sort"
	"strings"
)

// ParseCondDag reads a probabilistic conditional DAG in the ParseDag
// notation extended with branch probabilities on edges:
//
//	cond := leaf (leaf)* [';' edge (edge)*]
//	edge := name '>' name [':' prob]
//	leaf := name ['@' node] [':' ex ['/' pex]]
//
// Examples:
//
//	"a b c ; a>b:0.3 a>c:0.7"      a is conditional: b with 30%, c with 70%
//	"a b c d ; a>b:0.5 a>c:0.5 b>d c>d"
//	"a b ; a>b"                    no probabilities: an ordinary DAG
//
// Probability annotation is all-or-none per source vertex: if any
// out-edge of a vertex carries a probability then every out-edge of that
// vertex must, and they must sum to 1 (within BranchProbTol). Each
// probability must lie in (0, 1]. A DAG with no annotated edges parses to
// a CondDag with zero conditional vertices (one realization: the DAG
// itself). The result round-trips with CondDag.String.
func ParseCondDag(input string) (*CondDag, error) {
	p := &parser{src: input}
	d := NewDag("")
	byName := make(map[string]*DagNode)
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.peek() == ';' {
			break
		}
		t, err := p.parseLeaf()
		if err != nil {
			return nil, err
		}
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupName, t.Name)
		}
		n, err := d.AddTask(t)
		if err != nil {
			return nil, err
		}
		byName[t.Name] = n
	}
	// probs[id] collects the annotation of each out-edge in succs order;
	// math.NaN is not used — unannotated edges are recorded as -1 so the
	// all-or-none rule can be checked per vertex after parsing.
	probs := make(map[int][]float64)
	if p.peek() == ';' {
		p.pos++
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				break
			}
			from, err := p.parseEdgeName(byName)
			if err != nil {
				return nil, err
			}
			if p.peek() != '>' {
				return nil, p.errf("expected '>' in edge")
			}
			p.pos++
			to, err := p.parseEdgeName(byName)
			if err != nil {
				return nil, err
			}
			if err := d.AddEdge(from, to); err != nil {
				return nil, err
			}
			pr := -1.0
			if p.peek() == ':' {
				p.pos++
				f, err := p.parseFloat()
				if err != nil {
					return nil, err
				}
				if f <= 0 || f > 1 {
					return nil, fmt.Errorf("%w: %q -> %q has probability %v (offset %d)",
						ErrBranchProb, from.Task.Name, to.Task.Name, f, p.pos)
				}
				pr = f
			}
			probs[from.id] = append(probs[from.id], pr)
		}
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("task: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cd := NewCondDag(d)
	for id, ps := range probs {
		n := d.nodes[id]
		annotated := 0
		for _, pr := range ps {
			if pr >= 0 {
				annotated++
			}
		}
		if annotated == 0 {
			continue
		}
		if annotated != len(ps) {
			return nil, fmt.Errorf("%w: %q annotates %d of %d out-edges",
				ErrBranchArity, n.Task.Name, annotated, len(ps))
		}
		if err := cd.SetBranch(n, ps); err != nil {
			return nil, err
		}
	}
	return cd, nil
}

// MustParseCondDag is ParseCondDag, panicking on error; for tests and
// examples.
func MustParseCondDag(input string) *CondDag {
	cd, err := ParseCondDag(input)
	if err != nil {
		panic(err)
	}
	return cd
}

// String renders the conditional DAG in the ParseCondDag notation: leaves
// in id order, then "; " and the edges sorted by (from, to) id, with
// ":prob" appended to every out-edge of a conditional vertex. The output
// re-parses to an equivalent CondDag when node names are unique.
func (cd *CondDag) String() string {
	d := cd.dag
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
			probs := cd.branch(n.id)
			for si, s := range n.succs {
				pr := -1.0
				if probs != nil {
					pr = probs[si]
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
			if e.prob >= 0 {
				fmt.Fprintf(&b, " %s>%s:%g", e.from.Task.Name, e.to.Task.Name, e.prob)
			} else {
				fmt.Fprintf(&b, " %s>%s", e.from.Task.Name, e.to.Task.Name)
			}
		}
	}
	return b.String()
}
