package task

import "fmt"

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
	d, probs, err := parseDagSpec(input, true)
	if err != nil {
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
func (cd *CondDag) String() string { return cd.dag.render(cd.branch) }
