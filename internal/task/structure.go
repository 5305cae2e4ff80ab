package task

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/simtime"
)

// Series-parallel decomposition of a precedence DAG.
//
// The paper's SDA recursion (Figure 13) is defined over serial-parallel
// trees. To run it over DAGs without changing its behaviour on the
// structures the paper covers, Decompose recovers the serial-parallel
// shape of a DAG wherever it exists: a DAG produced by FromTree
// decomposes back into (the canonical flattened form of) the original
// tree, so DAG-aware deadline assignment applies the exact Figure 13
// recursion there. Only the irreducible residue — weakly connected
// subgraphs with no complete-bipartite serial cut, e.g. an N-shaped
// a→c, b→c, b→d — becomes a Cluster, handled by the generalized
// per-path scheme in internal/sda.
//
// The decomposition is canonical by construction: a Serial never has a
// Serial child and a Parallel never has a Parallel child, matching the
// flattening that tree→DAG conversion performs. Because that conversion
// is many-to-one ([A B C] and [[A B] C] map to the same chain), SDA over
// the decomposition agrees with tree SDA exactly on canonical trees.

// StructKind discriminates the nodes of a decomposition tree.
type StructKind int

// Decomposition node kinds.
const (
	StructLeaf     StructKind = iota + 1 // a single DAG vertex
	StructSerial                         // stages run one after another
	StructParallel                       // branches are independent
	StructCluster                        // irreducible non-series-parallel subgraph
)

// String returns the kind name.
func (k StructKind) String() string {
	switch k {
	case StructLeaf:
		return "leaf"
	case StructSerial:
		return "serial"
	case StructParallel:
		return "parallel"
	case StructCluster:
		return "cluster"
	default:
		return fmt.Sprintf("StructKind(%d)", int(k))
	}
}

// Structure is one node of a DAG's series-parallel decomposition tree.
// Exactly one of Node (leaf), Children (serial/parallel) and Members
// (cluster) is populated, according to Kind.
type Structure struct {
	Kind     StructKind
	Node     *DagNode     // leaf: the vertex
	Children []*Structure // serial: stages in order; parallel: branches by min vertex id
	Members  []*DagNode   // cluster: vertices in topological order

	down   []simtime.Duration // cluster: MemberDown's storage
	groups [][]*DagNode       // cluster: memoized ClusterGroups
}

// decompArenas is the storage a DAG keeps for its decomposition: the
// structure nodes, child lists and vertex lists, and each cluster's
// MemberDown and ClusterGroups results.
type decompArenas struct {
	structs arena[Structure]
	kids    arena[*Structure]
	parts   arena[*DagNode]
	down    arena[simtime.Duration]
	groups  arena[[]*DagNode]
	members arena[*DagNode]
}

func (a *decompArenas) reset() {
	a.structs.reset()
	a.kids.reset()
	a.parts.reset()
	a.down.reset()
	a.groups.reset()
	a.members.reset()
}

// Decompose computes the DAG's series-parallel decomposition. The result
// is deterministic: serial stages appear in precedence order, parallel
// branches in order of their smallest vertex id, cluster members in the
// DAG's canonical topological order.
//
// The decomposition is memoized until the next AddTask or AddEdge, and is
// owned by the DAG: callers must not mutate it, and it is valid until the
// graph changes or the DAG goes back to its slab. Its structure nodes,
// child lists and cluster member lists are carved from arenas the DAG
// keeps, and the walks run on pooled scratch indexed by vertex id, so a
// decomposition costs at most a handful of allocations whatever its
// shape, and none on a reused DAG of a shape it has held before.
func (d *Dag) Decompose() (*Structure, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.st != nil {
		return d.st, nil
	}
	topo, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(d.nodes)
	sc := getScratch(n)
	ar := &d.decomp
	ar.reset()
	// A decomposition tree over n vertices has at most 2n-1 nodes.
	ar.structs.reserve(2 * n)
	ar.kids.reserve(2 * n)
	dc := decomposer{n: n, sc: sc, ar: ar, bounds: sc.bounds[:0]}
	d.st = dc.decompose(topo)
	sc.bounds = dc.bounds[:0] // keep any growth for the next user
	putScratch(sc)
	return d.st, nil
}

// decomposer carries one decomposition's arenas and scratch. Arenas only
// ever carve fresh capacity-capped sub-slices, so nothing handed out is
// overwritten.
type decomposer struct {
	n      int // vertices in the DAG
	sc     *scratch
	ar     *decompArenas
	bounds []int // stack of split points; see decompose
}

func (dc *decomposer) newStruct(s Structure) *Structure {
	p := &dc.ar.structs.carve(1, 2*dc.n)[0]
	*p = s
	return p
}

// carveKids returns an empty child list with room for k children.
func (dc *decomposer) carveKids(k int) []*Structure {
	return dc.ar.kids.carve(k, 2*dc.n)[:0]
}

// carveNodes returns a vertex list of length k. Cluster members and
// parallel parts together rarely exceed 2n.
func (dc *decomposer) carveNodes(k int) []*DagNode {
	return dc.ar.parts.carve(k, 2*dc.n)
}

// decompose recursively decomposes the induced subgraph whose vertices
// are topo (a topological order of that subgraph).
//
// Split points are pushed onto dc.bounds before the children recurse and
// popped afterwards; the children push above them, so the parent re-reads
// its own entries by index after every recursive call.
func (dc *decomposer) decompose(topo []*DagNode) *Structure {
	if len(topo) == 1 {
		return dc.newStruct(Structure{Kind: StructLeaf, Node: topo[0]})
	}
	sc := dc.sc
	member := sc.markSet(topo)

	// Parallel split: weakly connected components of the induced subgraph
	// are mutually independent, exactly like the branches of a parallel
	// composition.
	base := len(dc.bounds)
	if parts, k := dc.components(topo, member); k > 1 {
		children := dc.carveKids(k)
		for i := 0; i < k; i++ {
			lo := 0
			if i > 0 {
				lo = dc.bounds[base+i-1]
			}
			// A connected component can never itself split in parallel, so
			// no flattening is needed here.
			children = append(children, dc.decompose(parts[lo:dc.bounds[base+i]]))
		}
		dc.bounds = dc.bounds[:base]
		return dc.newStruct(Structure{Kind: StructParallel, Children: children})
	}

	// Serial split: scan every prefix of the topological order. A cut P|Q
	// is a serial boundary iff its crossing edges are exactly the complete
	// bipartite graph sinks(P) x sources(Q) — the edge set tree->DAG
	// conversion generates for consecutive serial stages. Every valid
	// serial split of the subgraph shows up as such a prefix (each vertex
	// of P precedes each vertex of Q in every topological order), so one
	// scan finds all stage boundaries and yields the fully flattened
	// serial chain.
	if cuts := dc.serialCuts(topo, member); cuts > 0 {
		dc.bounds = append(dc.bounds, len(topo))
		children := dc.carveKids(cuts + 1)
		lo := 0
		for i := 0; i <= cuts; i++ {
			hi := dc.bounds[base+i]
			cs := dc.decompose(topo[lo:hi])
			if cs.Kind == StructSerial {
				// Defensive flattening; stages between consecutive cuts are
				// serial-irreducible, so this should not trigger.
				children = append(children, cs.Children...)
			} else {
				children = append(children, cs)
			}
			lo = hi
		}
		dc.bounds = dc.bounds[:base]
		return dc.newStruct(Structure{Kind: StructSerial, Children: children})
	}

	members := dc.carveNodes(len(topo))
	copy(members, topo)
	return dc.newStruct(Structure{Kind: StructCluster, Members: members})
}

// components splits the induced subgraph (the vertices stamped member)
// into weakly connected components. When there is more than one, it
// returns the vertices regrouped by component — each component in
// topological order, components ordered by their smallest vertex id — and
// pushes each component's end offset onto dc.bounds. It returns the
// number of components.
func (dc *decomposer) components(topo []*DagNode, member uint32) ([]*DagNode, int) {
	sc := dc.sc
	seen := sc.next()
	k := int32(0)
	for _, start := range topo {
		if sc.seen[start.id] == seen {
			continue
		}
		queue := append(sc.queue[:0], start)
		sc.seen[start.id] = seen
		sc.comp[start.id] = k
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, lists := range [2][]*DagNode{v.preds, v.succs} {
				for _, nb := range lists {
					if sc.mark[nb.id] != member || sc.seen[nb.id] == seen {
						continue
					}
					sc.seen[nb.id] = seen
					sc.comp[nb.id] = k
					queue = append(queue, nb)
				}
			}
		}
		k++
	}
	if k == 1 {
		return nil, 1
	}
	// Components are discovered in topological order of their first
	// vertex, not by smallest id: rank them by minimum id (an insertion
	// sort — there are few), then bucket the vertices, keeping topological
	// order within each component.
	minID := sc.ints[:k]
	for i := range minID {
		minID[i] = int(^uint(0) >> 1)
	}
	for _, v := range topo {
		if c := sc.comp[v.id]; v.id < minID[c] {
			minID[c] = v.id
		}
	}
	order := sc.ints[k : 2*k] // order[r] = component of rank r
	for c := range order {
		order[c] = c
		for r := c; r > 0 && minID[order[r]] < minID[order[r-1]]; r-- {
			order[r], order[r-1] = order[r-1], order[r]
		}
	}
	// Reuse minID as the per-component write offset, by rank.
	off := minID
	size := sc.ints[2*k : 3*k]
	clear(size)
	for _, v := range topo {
		size[sc.comp[v.id]]++
	}
	at := 0
	for _, c := range order {
		off[c] = at
		at += size[c]
		dc.bounds = append(dc.bounds, at)
	}
	parts := dc.carveNodes(len(topo))
	for _, v := range topo {
		c := sc.comp[v.id]
		parts[off[c]] = v
		off[c]++
	}
	return parts, int(k)
}

// serialCuts pushes onto dc.bounds every prefix length p of topo such
// that the cut topo[:p] | topo[p:] is a valid serial boundary of the
// induced subgraph (the vertices stamped member), in increasing order,
// and returns how many it pushed.
func (dc *decomposer) serialCuts(topo []*DagNode, member uint32) int {
	sc := dc.sc
	inP := sc.next() // sc.inP[id] == inP: the vertex is in the prefix P
	m := len(topo)
	cuts := 0
	for p := 1; p < m; p++ {
		sc.inP[topo[p-1].id] = inP
		sinksP, sourcesQ := 0, 0
		for i, v := range topo {
			if i < p {
				sink := true
				for _, s := range v.succs {
					if sc.mark[s.id] == member && sc.inP[s.id] == inP {
						sink = false
						break
					}
				}
				sc.sinkP[v.id] = sink
				if sink {
					sinksP++
				}
			} else {
				src := true
				for _, q := range v.preds {
					if sc.mark[q.id] == member && sc.inP[q.id] != inP {
						src = false
						break
					}
				}
				sc.srcQ[v.id] = src
				if src {
					sourcesQ++
				}
			}
		}
		crossing := 0
		valid := true
	scan:
		for _, v := range topo[:p] {
			for _, s := range v.succs {
				if sc.mark[s.id] != member || sc.inP[s.id] == inP {
					continue
				}
				crossing++
				if !sc.sinkP[v.id] || !sc.srcQ[s.id] {
					valid = false
					break scan
				}
			}
		}
		// Distinct edges within sinks(P) x sources(Q) matching the product
		// count means the crossing set is the full bipartite graph.
		if valid && crossing == sinksP*sourcesQ {
			dc.bounds = append(dc.bounds, p)
			cuts++
		}
	}
	return cuts
}

// CriticalPath returns the longest execution-time path through the
// structure: Exec for leaves, sum over serial stages, max over parallel
// branches, longest member path for clusters.
func (s *Structure) CriticalPath() simtime.Duration {
	return s.path(func(t *Task) simtime.Duration { return t.Exec })
}

// PredictedCriticalPath is CriticalPath over Pex instead of Exec; SSP
// strategies use it to budget time for downstream stages.
func (s *Structure) PredictedCriticalPath() simtime.Duration {
	return s.path(func(t *Task) simtime.Duration { return t.Pex })
}

func (s *Structure) path(weight func(*Task) simtime.Duration) simtime.Duration {
	switch s.Kind {
	case StructLeaf:
		return weight(s.Node.Task)
	case StructSerial:
		var sum simtime.Duration
		for _, c := range s.Children {
			sum += c.path(weight)
		}
		return sum
	case StructParallel:
		var longest simtime.Duration
		for _, c := range s.Children {
			longest = longest.Max(c.path(weight))
		}
		return longest
	case StructCluster:
		sc := getScratch(s.Members[0].dag.Len())
		longest := memberDown(s.Members, weight, sc.dur[:s.Members[0].dag.Len()])
		putScratch(sc)
		return longest
	default:
		return 0
	}
}

// NotMember marks the entries of a MemberDown slice that belong to
// vertices outside the cluster. Weights are validated non-negative, so no
// member's entry can take this value.
const NotMember simtime.Duration = -math.MaxFloat64

// memberDown runs the longest-path DP over the member-induced subgraph
// (members in topological order). It fills down, indexed by vertex id
// over the whole DAG, with each member's heaviest path starting at it
// (inclusive) and every other entry with NotMember, and returns the
// overall maximum.
func memberDown(members []*DagNode, weight func(*Task) simtime.Duration, down []simtime.Duration) simtime.Duration {
	for i := range down {
		down[i] = NotMember
	}
	var longest simtime.Duration
	for i := len(members) - 1; i >= 0; i-- {
		v := members[i]
		var best simtime.Duration
		for _, s := range v.succs {
			// In-cluster successors come later in topological order, so
			// their entries are already final.
			if w := down[s.id]; w != NotMember {
				best = best.Max(w)
			}
		}
		down[v.id] = weight(v.Task) + best
		longest = longest.Max(down[v.id])
	}
	return longest
}

// MemberDown returns the cluster's per-member heaviest remaining Pex
// path (the member's own Pex plus the heaviest Pex path through its
// in-cluster successors), indexed by vertex id over the whole DAG;
// entries of vertices outside the cluster hold NotMember, so the slice
// also answers cluster membership. Deadline assignment uses it to budget
// the stages that follow a vertex inside an irreducible cluster. The
// slice is owned by the DAG and rewritten by every call on the cluster,
// from the members' current Pex. Panics unless s is a cluster.
func (s *Structure) MemberDown() []simtime.Duration {
	if s.Kind != StructCluster {
		panic("task: MemberDown on non-cluster structure")
	}
	if s.down == nil {
		d := s.Members[0].dag
		s.down = d.decomp.down.carve(d.Len(), d.Len())
	}
	memberDown(s.Members, func(t *Task) simtime.Duration { return t.Pex }, s.down)
	return s.down
}

// ClusterGroups partitions a cluster's members into its sibling groups:
// members with identical in-cluster predecessor and successor sets.
// Such a group is a join-free antichain — its members become executable
// at the same instant (they await the same predecessors) and hand off
// to the same successors, so deadline assignment treats them like the
// branches of a parallel composition. Groups are ordered by the
// topological position of their first member, members within a group by
// topological order. The groups are computed once per decomposition and
// owned by the DAG; callers must not mutate them. Panics unless s is a
// cluster.
func (s *Structure) ClusterGroups() [][]*DagNode {
	if s.Kind != StructCluster {
		panic("task: ClusterGroups on non-cluster structure")
	}
	if s.groups == nil {
		s.groups = s.clusterGroups()
	}
	return s.groups
}

// clusterGroups computes ClusterGroups into the DAG's arenas.
func (s *Structure) clusterGroups() [][]*DagNode {
	members := s.Members
	m := len(members)
	d := members[0].dag
	sc := getScratch(d.Len())
	defer putScratch(sc)
	in := sc.markSet(members)

	// A member's signature is its sorted in-cluster predecessor ids
	// followed by its sorted in-cluster successor ids, packed into sig;
	// member i's signature is sig[at[i]:at[i+1]], split after npred[i].
	// Two members share a group iff both lists are equal.
	sig := sc.ints[:0]
	aux := sc.aux[:4*m+1]
	at, npred, gid := aux[:m+1], aux[m+1:2*m+1], aux[2*m+1:3*m+1]
	reps := aux[3*m+1 : 3*m+1 : 4*m+1] // reps[g]: index of group g's first member
	for i, v := range members {
		at[i] = len(sig)
		sig = appendInCluster(sig, v.preds, sc.mark, in)
		npred[i] = len(sig) - at[i]
		sig = appendInCluster(sig, v.succs, sc.mark, in)
		at[i+1] = len(sig)
		gid[i] = -1
		for g, j := range reps {
			if npred[j] == npred[i] && slices.Equal(sig[at[j]:at[j+1]], sig[at[i]:at[i+1]]) {
				gid[i] = g
				break
			}
		}
		if gid[i] < 0 {
			gid[i] = len(reps)
			reps = append(reps, i)
		}
	}
	sc.ints = sig[:cap(sig)] // keep any growth for the next user

	// Pack the groups into one backing array: group order is first
	// appearance, member order topological, exactly as appending would
	// produce.
	groups := d.decomp.groups.carve(len(reps), d.Len())
	backing := d.decomp.members.carve(m, d.Len())
	size := at[:len(reps)] // the signatures are no longer needed
	clear(size)
	for _, g := range gid {
		size[g]++
	}
	off := 0
	for g := range groups {
		groups[g] = backing[off : off : off+size[g]]
		off += size[g]
	}
	for i, v := range members {
		groups[gid[i]] = append(groups[gid[i]], v)
	}
	return groups
}

// appendInCluster appends the ids of the vertices of vs stamped in,
// sorted ascending.
func appendInCluster(dst []int, vs []*DagNode, mark []uint32, in uint32) []int {
	start := len(dst)
	for _, v := range vs {
		if mark[v.id] == in {
			dst = append(dst, v.id)
		}
	}
	slices.Sort(dst[start:])
	return dst
}
