// Command sdacalc is an offline subtask-deadline calculator: it parses a
// serial-parallel task expression, applies an SDA strategy combination,
// and prints the virtual deadline assigned to every subtask.
//
// Example (the paper's introduction example):
//
//	sdacalc -deadline 10 -ssp EQF -psp DIV-1 \
//	    "[[T11@0:5||T12@1:5||T13@2:5||T14@3:5||T15@4:5] T2@5:5]"
//
// With -dag the expression is a precedence DAG instead — vertices
// followed by ';' and a list of edges — and deadlines are assigned over
// its series-parallel decomposition:
//
//	sdacalc -dag -deadline 12 "a@0:2 b@1:3 c@2:1 ; a>b a>c b>c"
//
// With -analyze no deadlines are assigned; instead the analytic
// response-time oracle (internal/analysis) prints volume, critical path,
// and the schedule-independent bounds. DAG edges may carry branch
// probabilities ("a>b:0.3"), making the vertex a conditional branch
// point; the analysis then enumerates every realization:
//
//	sdacalc -analyze -dag -deadline 5 "s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t"
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

func main() { cli.Main("sdacalc", parse) }

func run(args []string, w io.Writer) error { return cli.Run("sdacalc", parse, args, w) }

// plan is a validated sdacalc invocation: the parsed expression (one of
// root, dag or cond) and what to compute on it.
type plan struct {
	root    *task.Task
	dag     *task.Dag
	cond    *task.CondDag // -analyze -dag
	ar, dl  simtime.Time
	ssp     sda.SSP
	psp     sda.PSP
	analyze bool
}

// parse registers the flags on fs, reads and validates args, and
// parses the task expression.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	p := &plan{}
	fs.Float64Var((*float64)(&p.ar), "arrival", 0, "release instant of the global task")
	fs.Float64Var((*float64)(&p.dl), "deadline", 0, "end-to-end deadline of the global task")
	strategy := cli.AddStrategy(fs, sda.EQF{}, sda.MustDiv(1))
	dag := fs.Bool("dag", false, "parse the expression as a precedence DAG ('vertices ; edges')")
	fs.BoolVar(&p.analyze, "analyze", false, "print analytic response-time bounds instead of assigning deadlines")
	if err := cli.Parse(fs, args, cli.Rule{ZeroOK: []string{"arrival", "deadline"}}); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("want exactly one task expression, got %d args", fs.NArg())
	}
	var err error
	switch expr := fs.Arg(0); {
	case p.analyze && *dag:
		p.cond, err = task.ParseCondDag(expr)
	case *dag:
		p.dag, err = task.ParseDag(expr)
	default:
		p.root, err = task.Parse(expr)
	}
	if err != nil {
		return nil, err
	}
	if p.analyze {
		return p, nil
	}
	if p.ssp, p.psp, err = strategy.Parse(); err != nil {
		return nil, err
	}
	if !p.dl.After(p.ar) {
		return nil, fmt.Errorf("deadline %v must be after arrival %v", p.dl, p.ar)
	}
	return p, nil
}

// Execute prints the analysis or assigns and prints the deadlines.
func (p *plan) Execute(w io.Writer) error {
	ar, dl, ssp, psp := p.ar, p.dl, p.ssp, p.psp
	if p.analyze {
		rel := simtime.Duration(0)
		if dl.After(ar) {
			rel = simtime.Duration(dl.Sub(ar))
		}
		if p.cond != nil {
			return printCondAnalysis(w, p.cond, rel)
		}
		m, err := analysis.TreeMetrics(p.root)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "task      %s\n", p.root)
		printMetrics(w, m, rel)
		return nil
	}
	if p.dag != nil {
		if err := sda.PlanDag(p.dag, ar, dl, ssp, psp); err != nil {
			return err
		}
		return printDag(w, p.dag, ssp, psp, ar, dl)
	}
	root := p.root
	if err := sda.Plan(root, ar, dl, ssp, psp); err != nil {
		return err
	}

	fmt.Fprintf(w, "task      %s\n", root)
	fmt.Fprintf(w, "strategy  %s-%s   arrival %v   deadline %v\n", ssp.Name(), psp.Name(), ar, dl)
	fmt.Fprintf(w, "critical path %v   total work %v   subtasks %d\n\n",
		root.CriticalPath(), root.TotalWork(), root.CountSimple())
	fmt.Fprintf(w, "%-24s %-9s %8s %10s %10s %6s\n",
		"subtask", "kind", "node", "release", "virtual dl", "boost")
	printTree(w, root, 0)
	return nil
}

// printDag renders the planned DAG as a per-vertex table in topological
// order, with predecessor lists in place of the tree indentation.
func printDag(w io.Writer, d *task.Dag, ssp sda.SSP, psp sda.PSP, ar, dl simtime.Time) error {
	topo, err := d.TopoOrder()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dag       %s\n", d)
	fmt.Fprintf(w, "strategy  %s-%s   arrival %v   deadline %v\n", ssp.Name(), psp.Name(), ar, dl)
	fmt.Fprintf(w, "critical path %v   total work %v   vertices %d   edges %d   depth %d   width %d\n\n",
		d.CriticalPath(), d.TotalWork(), d.Len(), d.EdgeCount(), d.Depth(), d.Width())
	fmt.Fprintf(w, "%-16s %8s %10s %10s %6s  %s\n",
		"vertex", "node", "release", "virtual dl", "boost", "preds")
	for _, n := range topo {
		t := n.Task
		boost := ""
		if t.PriorityBoost {
			boost = "GF"
		}
		preds := make([]string, 0, len(n.Preds()))
		for _, p := range n.Preds() {
			preds = append(preds, p.Task.Name)
		}
		pred := "-"
		if len(preds) > 0 {
			pred = strings.Join(preds, ",")
		}
		fmt.Fprintf(w, "%-16s %8d %10v %10v %6s  %s\n",
			t.Name, t.Node, t.Arrival, t.VirtualDeadline, boost, pred)
	}
	return nil
}

// printMetrics renders one Metrics block with its bounds; rel > 0 adds a
// feasibility verdict for that relative end-to-end deadline.
func printMetrics(w io.Writer, m analysis.Metrics, rel simtime.Duration) {
	fmt.Fprintf(w, "volume %v   critical path %v   vertices %d   depth %d   width %d\n",
		m.Volume, m.Critical, m.Vertices, m.Depth, m.Width)
	fmt.Fprintf(w, "response lower bound (any schedule)  %v\n", m.ResponseLower(1))
	fmt.Fprintf(w, "isolated upper bound (idle system)   %v\n", m.IsolatedUpper(1))
	if rel > 0 {
		verdict := "infeasible under every schedule"
		if m.Feasible(rel, 1) {
			verdict = "not excluded by the lower bound"
		}
		fmt.Fprintf(w, "relative deadline %v: %s\n", rel, verdict)
	}
}

// printCondAnalysis enumerates the conditional DAG's realizations and
// prints per-realization metrics plus the probability-weighted bounds.
func printCondAnalysis(w io.Writer, cd *task.CondDag, rel simtime.Duration) error {
	s, err := analysis.SummarizeCond(cd, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cond dag  %s\n", cd)
	fmt.Fprintf(w, "branch points %d   realizations %d\n\n", cd.CondCount(), len(s.Realizations))
	fmt.Fprintf(w, "%-6s %10s %10s %12s\n", "prob", "volume", "critical", "lower bound")
	for _, r := range s.Realizations {
		m := r.Metrics
		fmt.Fprintf(w, "%-6.4g %10v %10v %12v\n",
			r.Prob, m.Volume, m.Critical, m.ResponseLower(1))
	}
	fmt.Fprintf(w, "\nE[volume] %.4g   E[critical] %.4g   E[response] >= %v\n",
		s.ExpVolume, s.ExpCritical, s.ExpResponseLower(1))
	fmt.Fprintf(w, "critical path range [%v, %v]   max volume %v\n",
		s.MinCritical, s.MaxCritical, s.MaxVolume)
	if rel > 0 {
		fmt.Fprintf(w, "relative deadline %v: miss ratio >= %.4g under every schedule\n",
			rel, s.MissLowerBound(rel, 1))
	}
	return nil
}

func printTree(w io.Writer, t *task.Task, depth int) {
	name := t.Name
	if name == "" {
		name = "(" + t.Kind.String() + ")"
	}
	indent := strings.Repeat("  ", depth)
	nodeCol := "-"
	if t.IsSimple() {
		nodeCol = fmt.Sprintf("%d", t.Node)
	}
	boost := ""
	if t.PriorityBoost {
		boost = "GF"
	}
	fmt.Fprintf(w, "%-24s %-9s %8s %10v %10v %6s\n",
		indent+name, t.Kind, nodeCol, t.Arrival, t.VirtualDeadline, boost)
	for _, c := range t.Children {
		printTree(w, c, depth+1)
	}
}
