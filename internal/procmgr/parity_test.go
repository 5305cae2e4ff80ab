package procmgr

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Tree/DAG parity: a serial-parallel tree run through SubmitGlobal and its
// DAG conversion run through SubmitDag must produce the same schedule and
// the same outcome stream. The two entry points share one run state
// machine; these inputs pin them together across strategies, abort modes,
// deadline tightness and competing local load.

// parityExprs are the trees of the parity test and the fuzz seeds.
var parityExprs = []string{
	"[a@0:2 [b@0:3 || c@1:1 || d@2:4] e@1:2]",
	"[[a@0:1 b@1:2] || [c@2:3 d@3:1] || e@0:5]",
	"[a@0:1 b@0:2 c@0:3]",
	"[[a@0:2 || b@0:2] [c@1:1 || d@1:4]]",
}

var (
	paritySSPs = []sda.SSP{sda.SerialUD{}, sda.ED{}, sda.EQS{}, sda.EQF{}}
	parityPSPs = []sda.PSP{sda.UD{}, sda.MustDiv(1), sda.GF{}}
	// parityFactors scale the tree's predicted critical path into its
	// real deadline, from hopeless to generous.
	parityFactors = []float64{0.5, 0.8, 1.0, 1.5}
	parityModes   = []struct {
		name  string
		mopts []Option
		nopts []node.Option
	}{
		{"no-abort", nil, nil},
		{"pm-abort", []Option{WithPMAbort()}, nil},
		{"local-abort", nil, []node.Option{node.WithLocalAbort()}},
	}
)

// parityNodes is the node count of every parity rig.
const parityNodes = 4

// parityCase is one point of the parity grid.
type parityCase struct {
	expr   string
	ssp    sda.SSP
	psp    sda.PSP
	mode   int
	factor float64
}

func (c parityCase) String() string {
	return fmt.Sprintf("%s x %s x %s x %s x %.1f", c.expr, c.ssp.Name(), c.psp.Name(), parityModes[c.mode].name, c.factor)
}

// parityResult summarises one tree run for the grid's coverage checks.
type parityResult struct {
	missed  bool // the global task missed its deadline
	aborted int  // leaves aborted
}

// runParity runs c as a tree and as a DAG on identical rigs and returns
// the tree run's summary and a description of the first difference ("" if
// none). A submission error of the tree run is returned as is.
func runParity(t *testing.T, c parityCase) (parityResult, string, error) {
	mode := parityModes[c.mode]
	submit := func(global func(*Manager) error) ([]record, error) {
		eng, _, m, rec := rig(t, parityNodes, c.ssp, c.psp, mode.mopts, mode.nopts...)
		// One competing local task per node.
		for i := 0; i < parityNodes; i++ {
			ex := simtime.Duration(0.5 + 0.25*float64(i))
			l := task.MustSimple(fmt.Sprintf("L%d", i), i, ex)
			l.RealDeadline = simtime.Time(0).Add(ex.Scale(2))
			if err := m.SubmitLocal(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := global(m); err != nil {
			return nil, err
		}
		eng.Run()
		// The global task's name is the one thing the entry points may
		// label differently.
		for i := range rec.records {
			if rec.records[i].kind == "global" {
				rec.records[i].name = ""
			}
		}
		return rec.records, nil
	}

	tree := task.MustParse(c.expr)
	deadline := simtime.Time(0).Add(tree.PredictedCriticalPath().Scale(c.factor))
	tree.RealDeadline = deadline
	recT, errT := submit(func(m *Manager) error { return m.SubmitGlobal(tree) })
	d, err := task.FromTree(task.MustParse(c.expr))
	if err != nil {
		t.Fatal(err)
	}
	d.Root().RealDeadline = deadline
	recD, errD := submit(func(m *Manager) error { return m.SubmitDag(d) })
	if errT != nil || errD != nil {
		if (errT == nil) != (errD == nil) {
			return parityResult{}, fmt.Sprintf("tree submit err %v, DAG submit err %v", errT, errD), nil
		}
		return parityResult{}, "", errT
	}

	res := parityResult{missed: tree.Aborted || tree.Finish.After(tree.RealDeadline)}
	leaves, nodes := tree.Leaves(), d.Nodes()
	if len(leaves) != len(nodes) {
		return res, fmt.Sprintf("%d tree leaves vs %d DAG vertices", len(leaves), len(nodes)), nil
	}
	for i, leaf := range leaves {
		if leaf.Aborted {
			res.aborted++
		}
		got := nodes[i].Task
		// An aborted DAG run also marks its never-released vertices
		// aborted; a tree run leaves unreleased stages untouched. A bare
		// leaf tree is its own root, whose flag is compared below.
		sameAbort := got.Aborted == leaf.Aborted || leaf.VirtualDeadline.IsNever() || leaf == tree
		if got.Arrival != leaf.Arrival || got.VirtualDeadline != leaf.VirtualDeadline ||
			got.PriorityBoost != leaf.PriorityBoost || got.Finish != leaf.Finish || !sameAbort {
			return res, fmt.Sprintf("leaf %q: DAG (ar %v vdl %v boost %v fin %v aborted %v) != tree (ar %v vdl %v boost %v fin %v aborted %v)",
				leaf.Name, got.Arrival, got.VirtualDeadline, got.PriorityBoost, got.Finish, got.Aborted,
				leaf.Arrival, leaf.VirtualDeadline, leaf.PriorityBoost, leaf.Finish, leaf.Aborted), nil
		}
	}
	if tree.Aborted != d.Root().Aborted || tree.Finish != d.Root().Finish {
		return res, fmt.Sprintf("root: DAG (fin %v aborted %v) != tree (fin %v aborted %v)",
			d.Root().Finish, d.Root().Aborted, tree.Finish, tree.Aborted), nil
	}
	if !reflect.DeepEqual(recT, recD) {
		return res, fmt.Sprintf("outcome streams differ:\ntree %v\nDAG  %v", recT, recD), nil
	}
	return res, "", nil
}

// TestSubmitDagMatchesSubmitGlobal is the online reduction proof: running
// a serial-parallel tree through SubmitGlobal and its DAG conversion
// through SubmitDag on identical rigs produces identical per-leaf
// schedules and identical ordered outcome streams, under every abort mode
// and deadline tightness, with a competing local task on every node.
func TestSubmitDagMatchesSubmitGlobal(t *testing.T) {
	cases, mismatches := 0, 0
	missed := make([]int, len(parityModes))
	aborted := make([]int, len(parityModes))
	for _, expr := range parityExprs {
		for _, ssp := range paritySSPs {
			for _, psp := range parityPSPs {
				for mode := range parityModes {
					for _, factor := range parityFactors {
						c := parityCase{expr: expr, ssp: ssp, psp: psp, mode: mode, factor: factor}
						res, diff, err := runParity(t, c)
						if err != nil {
							t.Fatalf("%v: %v", c, err)
						}
						cases++
						if diff != "" {
							mismatches++
							t.Errorf("%v: %s", c, diff)
						}
						if res.missed {
							missed[mode]++
						}
						aborted[mode] += res.aborted
					}
				}
			}
		}
	}
	if want := len(parityExprs) * len(paritySSPs) * len(parityPSPs) * len(parityModes) * len(parityFactors); cases != want {
		t.Fatalf("ran %d cases, want %d", cases, want)
	}
	// The grid must reach the paths it claims to pin: misses in every
	// mode, and leaves withdrawn by both abort mechanisms.
	for mode, m := range parityModes {
		if missed[mode] == 0 {
			t.Errorf("%s: no global task missed its deadline", m.name)
		}
		if mode > 0 && aborted[mode] == 0 {
			t.Errorf("%s: no leaf was aborted", m.name)
		}
	}
	t.Logf("%d cases, %d mismatches; missed per mode %v, aborted leaves per mode %v", cases, mismatches, missed, aborted)
}

// canonical reports whether the tree is in the flattened form FromTree's
// decomposition recovers: no serial child of a serial, no parallel child
// of a parallel. Only on such trees do the two entry points promise to
// agree (see task.Structure).
func canonical(t *task.Task) bool {
	for _, c := range t.Children {
		if (c.Kind == t.Kind && !c.IsSimple()) || !canonical(c) {
			return false
		}
	}
	return true
}

// FuzzTreeDagParity drives the parity check with arbitrary trees: any
// canonical tree of at most 64 leaves on the rig's nodes must schedule and
// report identically through SubmitGlobal and SubmitDag. The mode byte
// picks the abort mode and the deadline factor, the strategy byte the SSP
// and the PSP.
func FuzzTreeDagParity(f *testing.F) {
	for i, expr := range parityExprs {
		f.Add(expr, byte(i), byte(3*i))
	}
	f.Fuzz(func(t *testing.T, expr string, mode, strategy byte) {
		tree, err := task.Parse(expr)
		if err != nil || tree.CountSimple() > 64 || !canonical(tree) {
			return
		}
		c := parityCase{
			expr:   expr,
			ssp:    paritySSPs[int(strategy)%len(paritySSPs)],
			psp:    parityPSPs[int(strategy)/len(paritySSPs)%len(parityPSPs)],
			mode:   int(mode) % len(parityModes),
			factor: parityFactors[int(mode)/len(parityModes)%len(parityFactors)],
		}
		_, diff, err := runParity(t, c)
		if errors.Is(err, ErrBadNode) {
			return
		}
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if diff != "" {
			t.Fatalf("%v: %s", c, diff)
		}
	})
}
