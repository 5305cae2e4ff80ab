package workload

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/rng"
	"repro/internal/task"
)

// ConditionalDag builds probabilistic conditional fork-join pipelines
// (Ueter et al., arXiv:2101.11053): stages alternate between a single
// relay vertex (even stages) and a conditional fork (odd stages). A fork
// is a branch point — the preceding relay takes exactly one of Branches
// conditional out-edges, each leading to a gate vertex followed by Width
// parallel member vertices; all members (of every gate) feed the next
// relay, which therefore starts when the chosen branch finishes.
//
// The factory samples the branch outcome at generation time: NewDag
// returns one concrete realization drawn from the template's branch
// distribution. Branch choice models data-dependent control flow, which
// is independent of execution timing, so pre-sampling is semantically
// equivalent to resolving branches online — and it keeps replications
// bit-identical at any worker count, because all randomness stays in the
// workload stream.
//
// Every realization activates exactly one gate and its members per fork,
// so the realized volume is fixed: ceil(Stages/2) relays plus
// floor(Stages/2) * (1 + Width) branch vertices, independent of Branches
// and of the probabilities. ExpectedWork is exact, not approximate.
//
// RelayDist and BranchDist optionally override the service-time family
// for relay and branch (gate/member) vertices; each takes the mean of the
// service law the factory is given (Dist families are parameterised by
// it), which keeps the load equations valid.
type ConditionalDag struct {
	Stages   int // total stages (>= 1); even 0-based stages are relays
	Branches int // gates per conditional fork (>= 1)
	Width    int // parallel members behind the chosen gate (>= 1)

	// Probs are the branch probabilities of every fork, in gate order
	// (len == Branches, each in (0, 1], summing to 1). Nil means uniform.
	Probs []float64

	// Per-role service-time families (nil = the given law's family).
	RelayDist  Dist
	BranchDist Dist
}

// Compile-time interface checks.
var _ DagFactory = ConditionalDag{}

// forks returns the number of conditional fork stages.
func (f ConditionalDag) forks() int { return f.Stages / 2 }

// relays returns the number of relay stages.
func (f ConditionalDag) relays() int { return (f.Stages + 1) / 2 }

// branchProbs returns the per-fork branch probabilities: Probs, or
// when it is nil uniform ones appended to buf.
func (f ConditionalDag) branchProbs(buf []float64) []float64 {
	if f.Probs != nil {
		return f.Probs
	}
	for range f.Branches {
		buf = append(buf, 1/float64(f.Branches))
	}
	return buf
}

// Template builds the full conditional DAG — every gate of every fork —
// with freshly drawn execution times and node placements, drawing the DAG
// and its vertices' tasks from slab. Relay vertices draw from svc with
// RelayDist substituted when it is set, gate and member vertices from svc
// with BranchDist substituted. Realize on the result (or NewDag, which
// does both and hands the template back to slab) yields the concrete task.
//
// Vertices are added stage by stage: a relay stage adds its relay, a fork
// stage each gate followed by its Width members, so the exits of a fork
// stage — the members wired into the next relay — are found by position,
// with no list.
func (f ConditionalDag) Template(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.CondDag, error) {
	if err := f.Validate(k); err != nil {
		return nil, err
	}
	relaySvc, branchSvc := svc, svc
	if f.RelayDist != nil {
		relaySvc.Dist = f.RelayDist
	}
	if f.BranchDist != nil {
		branchSvc.Dist = f.BranchDist
	}
	cd := slab.CondDag("")
	d := cd.Dag()
	var buf [8]float64
	probs := f.branchProbs(buf[:0])
	names := condNamesFor(f)
	// The previous stage's vertices are d.Nodes()[prev:].
	prev := 0
	for st := 0; st < f.Stages; st++ {
		first := len(d.Nodes())
		if st%2 == 0 {
			// Relay stage: one vertex, any node.
			nodes := stream.Choose(k, 1)
			leaf, err := slab.Simple(names.relay(st), nodes[0], relaySvc.Draw(stream))
			if err != nil {
				return nil, err
			}
			r, err := d.AddTask(leaf)
			if err != nil {
				return nil, err
			}
			if st > 0 {
				// Wire the previous fork's members, skipping its gates.
				stage := d.Nodes()[prev:first]
				for i, p := range stage {
					if i%(1+f.Width) == 0 {
						continue
					}
					if err := d.AddEdge(p, r); err != nil {
						return nil, err
					}
				}
			}
			prev = first
			continue
		}
		// Fork stage: the preceding relay branches to Branches gates, each
		// followed by Width parallel members. Only members of one gate ever
		// run concurrently, so each gate's members get distinct nodes; the
		// gate itself runs alone between relay and members.
		relay := d.Nodes()[prev]
		for g := 0; g < f.Branches; g++ {
			gnodes := stream.Choose(k, 1)
			gleaf, err := slab.Simple(names.gate(st, g), gnodes[0], branchSvc.Draw(stream))
			if err != nil {
				return nil, err
			}
			gn, err := d.AddTask(gleaf)
			if err != nil {
				return nil, err
			}
			if err := d.AddEdge(relay, gn); err != nil {
				return nil, err
			}
			mnodes := stream.Choose(k, f.Width)
			for w := 0; w < f.Width; w++ {
				mleaf, err := slab.Simple(names.member(st, g, w), mnodes[w], branchSvc.Draw(stream))
				if err != nil {
					return nil, err
				}
				mn, err := d.AddTask(mleaf)
				if err != nil {
					return nil, err
				}
				if err := d.AddEdge(gn, mn); err != nil {
					return nil, err
				}
			}
		}
		if err := cd.SetBranch(relay, probs); err != nil {
			return nil, err
		}
		prev = first
	}
	return cd, nil
}

// condNames holds the vertex names of every ConditionalDag shape within
// its bounds, so drawing a template of such a shape builds no strings:
// relay stage st is "r<st>", gate g of fork stage st "g<st>_<g>", and
// member w of that gate "m<st>_<g>_<w>". A nil *condNames builds each
// name afresh, for larger shapes.
type condNames struct {
	relays  []string // [st]
	gates   []string // [st*condNamesBranches+g]
	members []string // [(st*condNamesBranches+g)*condNamesWidth+w]
}

// The bounds of the shared name table: 16 × (1 + 8 × 17) = 2,224 names,
// about 50 KB, covering every shipped conditional shape.
const (
	condNamesStages   = 16
	condNamesBranches = 8
	condNamesWidth    = 16
)

// sharedCondNames is built on first use and only read after that, so
// concurrent replications share it without locks.
var sharedCondNames = sync.OnceValue(func() *condNames {
	t := new(condNames)
	for st := 0; st < condNamesStages; st++ {
		t.relays = append(t.relays, indexedName("r", st))
		for g := 0; g < condNamesBranches; g++ {
			t.gates = append(t.gates, indexedName("g", st, g))
			for w := 0; w < condNamesWidth; w++ {
				t.members = append(t.members, indexedName("m", st, g, w))
			}
		}
	}
	return t
})

// condNamesFor returns the shared name table when it covers f's shape,
// and nil otherwise.
func condNamesFor(f ConditionalDag) *condNames {
	if f.Stages > condNamesStages || f.forks() > 0 && (f.Branches > condNamesBranches || f.Width > condNamesWidth) {
		return nil
	}
	return sharedCondNames()
}

func (t *condNames) relay(st int) string {
	if t == nil {
		return indexedName("r", st)
	}
	return t.relays[st]
}

func (t *condNames) gate(st, g int) string {
	if t == nil {
		return indexedName("g", st, g)
	}
	return t.gates[st*condNamesBranches+g]
}

func (t *condNames) member(st, g, w int) string {
	if t == nil {
		return indexedName("m", st, g, w)
	}
	return t.members[(st*condNamesBranches+g)*condNamesWidth+w]
}

// indexedName returns prefix followed by the indices joined with "_", as
// "m1_0_2" for ("m", 1, 0, 2).
func indexedName(prefix string, idx ...int) string {
	b := make([]byte, 0, 16)
	b = append(b, prefix...)
	for i, x := range idx {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// NewDag implements DagFactory: build the template and draw one
// realization from its branch distribution.
func (f ConditionalDag) NewDag(stream *rng.Stream, slab *task.Slab, k int, svc Service) (*task.Dag, error) {
	cd, err := f.Template(stream, slab, k, svc)
	if err != nil {
		return nil, err
	}
	return realize(cd, stream, slab)
}

// realize draws one realization of template cd from slab and hands the
// template, which nothing else references, back to it.
func realize(cd *task.CondDag, stream *rng.Stream, slab *task.Slab) (*task.Dag, error) {
	d, err := cd.Realize(stream, slab)
	slab.ReclaimCondDag(cd)
	return d, err
}

// ExpectedWork implements DagFactory. The realized vertex count is the
// same for every branch outcome, so this is exact.
func (f ConditionalDag) ExpectedWork(meanExec float64) float64 {
	return float64(f.relays()+f.forks()*(1+f.Width)) * meanExec
}

// Validate implements DagFactory, rejecting — per the task-model rules —
// branch probabilities outside (0, 1] and probability vectors that do not
// sum to 1.
func (f ConditionalDag) Validate(k int) error {
	if f.Stages < 1 {
		return fmt.Errorf("%w: ConditionalDag needs >= 1 stage, got %d", ErrBadSpec, f.Stages)
	}
	if f.forks() > 0 {
		if f.Branches < 1 {
			return fmt.Errorf("%w: ConditionalDag branches %d", ErrBadSpec, f.Branches)
		}
		if f.Width < 1 {
			return fmt.Errorf("%w: ConditionalDag width %d", ErrBadSpec, f.Width)
		}
		if f.Width > k {
			return fmt.Errorf("%w: width %d needs %d distinct nodes but k = %d",
				ErrBadSpec, f.Width, f.Width, k)
		}
		if f.Probs != nil {
			if len(f.Probs) != f.Branches {
				return fmt.Errorf("%w: %d branch probabilities for %d branches",
					ErrBadSpec, len(f.Probs), f.Branches)
			}
			sum := 0.0
			for _, p := range f.Probs {
				if !(p > 0) || p > 1 {
					return fmt.Errorf("%w: %w: probability %v", ErrBadSpec, task.ErrBranchProb, p)
				}
				sum += p
			}
			if diff := sum - 1; diff > task.BranchProbTol || diff < -task.BranchProbTol {
				return fmt.Errorf("%w: %w: probabilities sum to %v", ErrBadSpec, task.ErrBranchSum, sum)
			}
		}
	}
	return nil
}

// Name implements DagFactory.
func (f ConditionalDag) Name() string {
	if f.forks() == 0 {
		return fmt.Sprintf("cond%d", f.Stages)
	}
	return fmt.Sprintf("cond%d-b%d-w%d", f.Stages, f.Branches, f.Width)
}
