package task_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// This file keeps the first, map- and string-keyed implementation of the
// series-parallel decomposition (Decompose, ClusterGroups, MemberDown and
// sda.ClusterStagePexs) as a reference, and pins the index-based
// implementation to it structure for structure: same kinds, same vertices
// in the same order, same sibling groups, bit-identical down weights and
// SSP stage views. The reference recomputes the topological order from
// scratch, so the memoized order is checked too.

// refStruct mirrors task.Structure.
type refStruct struct {
	Kind     task.StructKind
	Node     *task.DagNode
	Children []*refStruct
	Members  []*task.DagNode
}

func refTopoOrder(d *task.Dag) ([]*task.DagNode, error) {
	nodes := d.Nodes()
	indeg := make([]int, len(nodes))
	for _, n := range nodes {
		indeg[n.ID()] = len(n.Preds())
	}
	var ready []int
	for _, n := range nodes {
		if indeg[n.ID()] == 0 {
			ready = append(ready, n.ID())
		}
	}
	sort.Ints(ready)
	out := make([]*task.DagNode, 0, len(nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		n := nodes[id]
		out = append(out, n)
		for _, s := range n.Succs() {
			indeg[s.ID()]--
			if indeg[s.ID()] == 0 {
				i := sort.SearchInts(ready, s.ID())
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = s.ID()
			}
		}
	}
	if len(out) != len(nodes) {
		return nil, task.ErrCycle
	}
	return out, nil
}

func refDecompose(d *task.Dag) (*refStruct, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	topo, err := refTopoOrder(d)
	if err != nil {
		return nil, err
	}
	return refDecomp(d, topo), nil
}

func refDecomp(d *task.Dag, topo []*task.DagNode) *refStruct {
	if len(topo) == 1 {
		return &refStruct{Kind: task.StructLeaf, Node: topo[0]}
	}
	member := make([]bool, d.Len())
	for _, n := range topo {
		member[n.ID()] = true
	}
	if parts := refComponents(topo, member); len(parts) > 1 {
		children := make([]*refStruct, len(parts))
		for i, part := range parts {
			children[i] = refDecomp(d, part)
		}
		return &refStruct{Kind: task.StructParallel, Children: children}
	}
	cuts := refSerialCuts(d, topo, member)
	if len(cuts) > 0 {
		bounds := append(append([]int{0}, cuts...), len(topo))
		var children []*refStruct
		for i := 0; i+1 < len(bounds); i++ {
			cs := refDecomp(d, topo[bounds[i]:bounds[i+1]])
			if cs.Kind == task.StructSerial {
				children = append(children, cs.Children...)
			} else {
				children = append(children, cs)
			}
		}
		return &refStruct{Kind: task.StructSerial, Children: children}
	}
	members := make([]*task.DagNode, len(topo))
	copy(members, topo)
	return &refStruct{Kind: task.StructCluster, Members: members}
}

func refComponents(topo []*task.DagNode, member []bool) [][]*task.DagNode {
	comp := make(map[*task.DagNode]int, len(topo))
	n := 0
	for _, start := range topo {
		if _, seen := comp[start]; seen {
			continue
		}
		queue := []*task.DagNode{start}
		comp[start] = n
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, lists := range [2][]*task.DagNode{v.Preds(), v.Succs()} {
				for _, nb := range lists {
					if !member[nb.ID()] {
						continue
					}
					if _, seen := comp[nb]; !seen {
						comp[nb] = n
						queue = append(queue, nb)
					}
				}
			}
		}
		n++
	}
	parts := make([][]*task.DagNode, n)
	minID := make([]int, n)
	for i := range minID {
		minID[i] = math.MaxInt
	}
	for _, v := range topo {
		c := comp[v]
		parts[c] = append(parts[c], v)
		if v.ID() < minID[c] {
			minID[c] = v.ID()
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return minID[order[i]] < minID[order[j]] })
	out := make([][]*task.DagNode, n)
	for i, c := range order {
		out[i] = parts[c]
	}
	return out
}

func refSerialCuts(d *task.Dag, topo []*task.DagNode, member []bool) []int {
	inP := make([]bool, d.Len())
	isSinkP := make([]bool, d.Len())
	isSourceQ := make([]bool, d.Len())
	var cuts []int
	for p := 1; p < len(topo); p++ {
		inP[topo[p-1].ID()] = true
		sinksP, sourcesQ := 0, 0
		for i, v := range topo {
			if i < p {
				sink := true
				for _, s := range v.Succs() {
					if member[s.ID()] && inP[s.ID()] {
						sink = false
						break
					}
				}
				isSinkP[v.ID()] = sink
				if sink {
					sinksP++
				}
			} else {
				src := true
				for _, q := range v.Preds() {
					if member[q.ID()] && !inP[q.ID()] {
						src = false
						break
					}
				}
				isSourceQ[v.ID()] = src
				if src {
					sourcesQ++
				}
			}
		}
		crossing := 0
		valid := true
	scan:
		for _, v := range topo[:p] {
			for _, s := range v.Succs() {
				if !member[s.ID()] || inP[s.ID()] {
					continue
				}
				crossing++
				if !isSinkP[v.ID()] || !isSourceQ[s.ID()] {
					valid = false
					break scan
				}
			}
		}
		if valid && crossing == sinksP*sourcesQ {
			cuts = append(cuts, p)
		}
	}
	return cuts
}

func refMemberDown(members []*task.DagNode, weight func(*task.Task) simtime.Duration) (map[*task.DagNode]simtime.Duration, simtime.Duration) {
	in := make(map[*task.DagNode]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	down := make(map[*task.DagNode]simtime.Duration, len(members))
	var longest simtime.Duration
	for i := len(members) - 1; i >= 0; i-- {
		v := members[i]
		var best simtime.Duration
		for _, s := range v.Succs() {
			if in[s] {
				best = best.Max(down[s])
			}
		}
		down[v] = weight(v.Task) + best
		longest = longest.Max(down[v])
	}
	return down, longest
}

func pex(t *task.Task) simtime.Duration  { return t.Pex }
func exec(t *task.Task) simtime.Duration { return t.Exec }

func refPath(s *refStruct, weight func(*task.Task) simtime.Duration) simtime.Duration {
	switch s.Kind {
	case task.StructLeaf:
		return weight(s.Node.Task)
	case task.StructSerial:
		var sum simtime.Duration
		for _, c := range s.Children {
			sum += refPath(c, weight)
		}
		return sum
	case task.StructParallel:
		var longest simtime.Duration
		for _, c := range s.Children {
			longest = longest.Max(refPath(c, weight))
		}
		return longest
	default:
		_, longest := refMemberDown(s.Members, weight)
		return longest
	}
}

func refClusterGroups(members []*task.DagNode) [][]*task.DagNode {
	in := make(map[*task.DagNode]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	sig := func(v *task.DagNode) string {
		var ids []int
		for _, p := range v.Preds() {
			if in[p] {
				ids = append(ids, p.ID())
			}
		}
		sort.Ints(ids)
		key := fmt.Sprint(ids, "|")
		ids = ids[:0]
		for _, c := range v.Succs() {
			if in[c] {
				ids = append(ids, c.ID())
			}
		}
		sort.Ints(ids)
		return key + fmt.Sprint(ids)
	}
	index := make(map[string]int)
	var groups [][]*task.DagNode
	for _, v := range members {
		k := sig(v)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], v)
	}
	return groups
}

func refClusterStagePexs(g []*task.DagNode, down map[*task.DagNode]simtime.Duration) []simtime.Duration {
	var groupPex simtime.Duration
	for _, m := range g {
		groupPex = groupPex.Max(m.Task.Pex)
	}
	pexs := []simtime.Duration{groupPex}
	cur := refBestSucc(g, down)
	for cur != nil {
		pexs = append(pexs, cur.Task.Pex)
		cur = refBestSucc([]*task.DagNode{cur}, down)
	}
	return pexs
}

func refBestSucc(from []*task.DagNode, down map[*task.DagNode]simtime.Duration) *task.DagNode {
	var best *task.DagNode
	for _, v := range from {
		for _, s := range v.Succs() {
			w, in := down[s]
			if !in {
				continue
			}
			if best == nil || w > down[best] || (w == down[best] && s.ID() < best.ID()) {
				best = s
			}
		}
	}
	return best
}

// sameDuration is bit equality, with every NaN equal to every other.
func sameDuration(a, b simtime.Duration) bool {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.IsNaN(float64(a)) && math.IsNaN(float64(b))
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func sameDurations(a, b []simtime.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameDuration(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameNodes(a, b []*task.DagNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func names(vs []*task.DagNode) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.Task.Name)
	}
	return b.String()
}

// diffDecompose decomposes d with both implementations and describes the
// first disagreement, or returns "" when they agree. It also checks that
// the decomposition covers every vertex exactly once.
func diffDecompose(d *task.Dag) string {
	wantTopo, wantTopoErr := refTopoOrder(d)
	gotTopo, gotTopoErr := d.TopoOrder()
	if !errors.Is(gotTopoErr, wantTopoErr) || !sameNodes(gotTopo, wantTopo) {
		return fmt.Sprintf("TopoOrder = [%s] %v, reference [%s] %v", names(gotTopo), gotTopoErr, names(wantTopo), wantTopoErr)
	}
	if _, cp := refMemberDown(wantTopo, exec); wantTopoErr == nil && !sameDuration(d.CriticalPath(), cp) {
		return fmt.Sprintf("CriticalPath = %v, reference %v", d.CriticalPath(), cp)
	}
	want, wantErr := refDecompose(d)
	got, gotErr := d.Decompose()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("Decompose error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	seen := make([]int, d.Len())
	if msg := diffStruct(got, want, "root", seen); msg != "" {
		return msg
	}
	for id, k := range seen {
		if k != 1 {
			return fmt.Sprintf("vertex %d appears %d times in the decomposition", id, k)
		}
	}
	return ""
}

func diffStruct(got *task.Structure, want *refStruct, at string, seen []int) string {
	if got.Kind != want.Kind {
		return fmt.Sprintf("%s: kind %v, reference %v", at, got.Kind, want.Kind)
	}
	if !sameDuration(got.PredictedCriticalPath(), refPath(want, pex)) || !sameDuration(got.CriticalPath(), refPath(want, exec)) {
		return fmt.Sprintf("%s: critical paths %v/%v, reference %v/%v", at,
			got.CriticalPath(), got.PredictedCriticalPath(), refPath(want, exec), refPath(want, pex))
	}
	switch got.Kind {
	case task.StructLeaf:
		if got.Node != want.Node {
			return fmt.Sprintf("%s: leaf %s, reference %s", at, got.Node.Task.Name, want.Node.Task.Name)
		}
		seen[got.Node.ID()]++
	case task.StructSerial, task.StructParallel:
		if len(got.Children) != len(want.Children) {
			return fmt.Sprintf("%s: %d children, reference %d", at, len(got.Children), len(want.Children))
		}
		for i := range got.Children {
			if msg := diffStruct(got.Children[i], want.Children[i], fmt.Sprintf("%s/%v[%d]", at, got.Kind, i), seen); msg != "" {
				return msg
			}
		}
	case task.StructCluster:
		if !sameNodes(got.Members, want.Members) {
			return fmt.Sprintf("%s: members [%s], reference [%s]", at, names(got.Members), names(want.Members))
		}
		for _, m := range got.Members {
			seen[m.ID()]++
		}
		return diffCluster(got, at)
	}
	return ""
}

func diffCluster(got *task.Structure, at string) string {
	members := got.Members
	wantDown, _ := refMemberDown(members, pex)
	gotDown := got.MemberDown()
	byID := make(map[int]*task.DagNode, len(members))
	for _, m := range members {
		byID[m.ID()] = m
	}
	for id, w := range gotDown {
		v, in := byID[id]
		if !in {
			if w != task.NotMember {
				return fmt.Sprintf("%s: MemberDown[%d] = %v for a non-member", at, id, w)
			}
			continue
		}
		if !sameDuration(w, wantDown[v]) {
			return fmt.Sprintf("%s: MemberDown[%s] = %v, reference %v", at, v.Task.Name, w, wantDown[v])
		}
	}
	gotGroups, wantGroups := got.ClusterGroups(), refClusterGroups(members)
	if len(gotGroups) != len(wantGroups) {
		return fmt.Sprintf("%s: %d groups, reference %d", at, len(gotGroups), len(wantGroups))
	}
	var scratch []simtime.Duration
	for i, g := range gotGroups {
		if !sameNodes(g, wantGroups[i]) {
			return fmt.Sprintf("%s: group %d [%s], reference [%s]", at, i, names(g), names(wantGroups[i]))
		}
		scratch = sda.ClusterStagePexs(scratch[:0], g, gotDown)
		if want := refClusterStagePexs(g, wantDown); !sameDurations(scratch, want) {
			return fmt.Sprintf("%s: ClusterStagePexs(group %d) = %v, reference %v", at, i, scratch, want)
		}
	}
	return ""
}

// smallInts draws the execution times 0, 1 and 2 with equal probability,
// whatever the mean, so down-weights tie.
type smallInts struct{}

func (smallInts) Sample(_ float64, s *rng.Stream) float64 { return float64(s.IntN(3)) }
func (smallInts) SCV() float64                            { return 2.0 / 3 }
func (smallInts) Name() string                            { return "int3" }

// randomTree draws a serial-parallel tree of at most the given depth with
// uniquely named leaves.
func randomTree(s *rng.Stream, depth int, next *int, svc workload.Service) *task.Task {
	if depth == 0 || s.Float64() < 0.3 {
		*next++
		return task.MustSimple(fmt.Sprintf("t%d", *next), s.IntN(6), svc.Draw(s))
	}
	children := make([]*task.Task, s.IntRange(2, 4))
	for i := range children {
		children[i] = randomTree(s, depth-1, next, svc)
	}
	if s.Float64() < 0.5 {
		return task.MustSerial("", children...)
	}
	return task.MustParallel("", children...)
}

// TestDecomposeMatchesReference runs both implementations over random
// DAGs of every shipped family — layered graphs, fork-joins without, with
// some and with all skip edges, conditional-DAG realizations — and over
// the DAGs of random serial-parallel trees. Half the draws use small
// integer execution times so that down-weight ties, and with them the
// smallest-id tie-breaks, are exercised.
func TestDecomposeMatchesReference(t *testing.T) {
	factories := []workload.DagFactory{
		workload.LayeredDag{Layers: 4, MinWidth: 1, MaxWidth: 4, EdgeProb: 0.3},
		workload.LayeredDag{Layers: 6, MinWidth: 1, MaxWidth: 3, EdgeProb: 0.6},
		workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0},
		workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3},
		workload.ForkJoinDag{Stages: 5, Fanout: 3, CrossProb: 0.3},
		workload.ForkJoinDag{Stages: 5, Fanout: 2, CrossProb: 1},
		workload.ConditionalDag{Stages: 5, Branches: 3, Width: 2},
		workload.ConditionalDag{Stages: 3, Branches: 2, Width: 4, Probs: []float64{0.7, 0.3}},
	}
	laws := []workload.Service{
		{Dist: workload.Exponential{}, Mean: 1},
		{Dist: smallInts{}},
	}
	clusters := 0
	for seed := uint64(1); seed <= 150; seed++ {
		s := rng.NewStream(seed)
		svc := laws[seed%2]
		for _, f := range factories {
			d, err := f.NewDag(s, nil, 6, svc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name(), seed, err)
			}
			if msg := diffDecompose(d); msg != "" {
				t.Fatalf("%s seed %d (%s): %s", f.Name(), seed, d, msg)
			}
			if st, _ := d.Decompose(); hasCluster(st) {
				clusters++
			}
		}
		next := 0
		d, err := task.FromTree(randomTree(s, 4, &next, svc))
		if err != nil {
			t.Fatalf("FromTree seed %d: %v", seed, err)
		}
		if msg := diffDecompose(d); msg != "" {
			t.Fatalf("FromTree seed %d (%s): %s", seed, d, msg)
		}
	}
	if clusters == 0 {
		t.Fatal("no draw produced a cluster; the cluster paths went untested")
	}
}

func hasCluster(s *task.Structure) bool {
	if s.Kind == task.StructCluster {
		return true
	}
	for _, c := range s.Children {
		if hasCluster(c) {
			return true
		}
	}
	return false
}

// FuzzDecompose drives both implementations with arbitrary DAG notation:
// no panic, every vertex of an accepted DAG in exactly one leaf or cluster,
// and full agreement with the reference.
func FuzzDecompose(f *testing.F) {
	for _, seed := range []string{
		"a",
		"a b ; a>b",
		"a b c d ; a>c b>c b>d",
		"s a b j t ; s>a s>b a>j b>j a>t j>t",
		"a b c d e f ; a>b a>c b>d b>e c>d c>e d>f e>f a>f",
		"v0 v1 v2 v3 v4 v5 ; v0>v1 v0>v2 v0>v3 v0>v4 v1>v5 v2>v5 v3>v5 v4>v5 v0>v5",
		"a@1:2 b@2:2 c@3:2 d:0 ; a>b c>d",
		"a b c ; a>b b>c c>a",
		"x y z w",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := task.ParseDag(input)
		if err != nil {
			return
		}
		if msg := diffDecompose(d); msg != "" {
			t.Fatalf("%q: %s", input, msg)
		}
	})
}
