package procmgr

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// dagRecorder extends testRecorder into a Listener that logs DAG
// submissions.
type dagRecorder struct {
	testRecorder
	submits []string
}

var _ Listener = (*dagRecorder)(nil)

func (r *dagRecorder) RecordDagSubmit(d *task.Dag, root *task.Task) {
	r.submits = append(r.submits, d.Name)
}

func (*dagRecorder) RecordRelease(*task.Task, *task.Task, simtime.Time)    {}
func (*dagRecorder) RecordCause(Cause, *task.Task, *task.Task, *task.Task) {}

func TestSubmitDagSerialChain(t *testing.T) {
	// a -> b -> c on one node: each vertex must be released exactly when
	// its predecessor finishes, with the SSP recomputed at that instant.
	eng, _, m, rec := rig(t, 1, sda.EQS{}, sda.UD{}, nil)
	d := task.MustParseDag("a@0:2 b@0:3 c@0:1 ; a>b b>c")
	d.Root().RealDeadline = 20
	if err := m.SubmitDag(d); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	byName := map[string]*task.Task{}
	for _, n := range d.Nodes() {
		byName[n.Task.Name] = n.Task
	}
	a, b, c := byName["a"], byName["b"], byName["c"]
	if a.Finish != 2 || b.Finish != 5 || c.Finish != 6 {
		t.Fatalf("finish times = %v %v %v, want 2 5 6", a.Finish, b.Finish, c.Finish)
	}
	if b.Arrival != a.Finish || c.Arrival != b.Finish {
		t.Errorf("successors not released at predecessor finish: ar(b)=%v ar(c)=%v",
			b.Arrival, c.Arrival)
	}
	// EQS at actual instants: a: 0 + 2 + (20-6)/3; b released at 2:
	// 2 + 3 + (20-2-4)/2 = 12; c released at 5: full budget 20.
	if diff := float64(a.VirtualDeadline) - (2 + 14.0/3); math.Abs(diff) > 1e-12 {
		t.Errorf("vdl(a) = %v, want %v", a.VirtualDeadline, 2+14.0/3)
	}
	if b.VirtualDeadline != 12 {
		t.Errorf("vdl(b) = %v, want 12 (EQS at actual release instant)", b.VirtualDeadline)
	}
	if c.VirtualDeadline != 20 {
		t.Errorf("vdl(c) = %v, want 20", c.VirtualDeadline)
	}
	if g, ok := rec.find("global", d.Name); !ok || g.missed {
		t.Errorf("global record = %+v, want hit", g)
	}
	if rec.count("subtask") != 3 {
		t.Errorf("subtask records = %d, want 3", rec.count("subtask"))
	}
}

func TestSubmitDagDiamondJoin(t *testing.T) {
	// a -> {b, c} -> d with b and c on distinct nodes: the join vertex d
	// is released when the slower branch finishes.
	eng, _, m, rec := rig(t, 2, sda.SerialUD{}, sda.UD{}, nil)
	d := task.MustParseDag("a@0:1 b@0:4 c@1:2 d@0:1 ; a>b a>c b>d c>d")
	d.Root().RealDeadline = 10
	if err := m.SubmitDag(d); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	byName := map[string]*task.Task{}
	for _, n := range d.Nodes() {
		byName[n.Task.Name] = n.Task
	}
	if got := byName["b"].Arrival; got != 1 {
		t.Errorf("ar(b) = %v, want 1", got)
	}
	if got := byName["c"].Arrival; got != 1 {
		t.Errorf("ar(c) = %v, want 1", got)
	}
	// b finishes at 5, c at 3; d waits for the join.
	if got := byName["d"].Arrival; got != 5 {
		t.Errorf("ar(d) = %v, want 5 (max of branch finishes)", got)
	}
	if g, _ := rec.find("global", d.Name); g.missed {
		t.Error("diamond should finish by 6 < 10")
	}
}

func TestSubmitDagClusterReleaseOrder(t *testing.T) {
	// Irreducible N-graph a>c b>c b>d: d depends only on b and must be
	// released at b's finish, before the join c becomes ready.
	eng, _, m, _ := rig(t, 2, sda.EQS{}, sda.UD{}, nil)
	d := task.MustParseDag("a@0:5 b@1:2 c@0:1 d@1:1 ; a>c b>c b>d")
	d.Root().RealDeadline = 30
	if err := m.SubmitDag(d); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	byName := map[string]*task.Task{}
	for _, n := range d.Nodes() {
		byName[n.Task.Name] = n.Task
	}
	if got := byName["d"].Arrival; got != 2 {
		t.Errorf("ar(d) = %v, want 2 (b's finish)", got)
	}
	if got := byName["c"].Arrival; got != 5 {
		t.Errorf("ar(c) = %v, want 5 (last predecessor a finishes)", got)
	}
	if got := byName["d"].Finish; got != 3 {
		t.Errorf("finish(d) = %v, want 3 — d must not wait for c", got)
	}
}

func TestSubmitDagAbortCascades(t *testing.T) {
	// PM abortion mid-chain: when the real deadline fires, the live vertex
	// is withdrawn and recorded; unreleased successors are marked aborted
	// but never recorded (the tree semantics for unreleased stages).
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	d := task.MustParseDag("a@0:2 b@0:9 c@0:1 x@0:1 ; a>b b>c b>x")
	d.Root().RealDeadline = 5
	if err := m.SubmitDag(d); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	byName := map[string]*task.Task{}
	for _, n := range d.Nodes() {
		byName[n.Task.Name] = n.Task
	}
	if g, ok := rec.find("global", d.Name); !ok || !g.missed {
		t.Fatalf("global record = %+v, want missed", g)
	}
	if !d.Root().Aborted {
		t.Error("root not marked aborted")
	}
	// a finished in time; b was live at the deadline; c and x never
	// released.
	if ra, _ := rec.find("subtask", "a"); ra.missed {
		t.Error("a should be recorded as a hit")
	}
	if rb, ok := rec.find("subtask", "b"); !ok || !rb.missed {
		t.Errorf("b record = %+v, want missed", rb)
	}
	if !byName["b"].Aborted {
		t.Error("live vertex b not marked aborted")
	}
	for _, name := range []string{"c", "x"} {
		if _, ok := rec.find("subtask", name); ok {
			t.Errorf("unreleased vertex %q must not be recorded", name)
		}
		if !byName[name].Aborted {
			t.Errorf("unreleased vertex %q not marked aborted by the cascade", name)
		}
	}
	if rec.count("subtask") != 2 {
		t.Errorf("subtask records = %d, want 2 (a, b)", rec.count("subtask"))
	}
}

func TestSubmitDagLocalAbortResubmits(t *testing.T) {
	// A blocker occupies the node past the first vertex's EQS deadline;
	// the local scheduler discards the vertex at dispatch and the manager
	// resubmits it with a deadline recomputed at the abort instant.
	eng, _, m, rec := rig(t, 1, sda.EQS{}, sda.UD{}, nil, node.WithLocalAbort())
	d := task.MustParseDag("a@0:1 b@0:4 ; a>b")
	d.Root().RealDeadline = 14 // EQS: vdl(a) = 0 + 1 + (14-5)/2 = 5.5
	blocker := task.MustSimple("L", 0, 6)
	blocker.RealDeadline = 1e6
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitDag(d); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	byName := map[string]*task.Task{}
	for _, n := range d.Nodes() {
		byName[n.Task.Name] = n.Task
	}
	// At t=6 the blocker finishes, a's 5.5 deadline has expired, and the
	// recomputed EQS deadline is 6 + 1 + (14-6-5)/2 = 8.5.
	if got := byName["a"].VirtualDeadline; math.Abs(float64(got)-8.5) > 1e-12 {
		t.Errorf("vdl(a) after resubmit = %v, want 8.5", got)
	}
	if got := byName["a"].Finish; got != 7 {
		t.Errorf("finish(a) = %v, want 7", got)
	}
	if got := byName["b"].Finish; got != 11 {
		t.Errorf("finish(b) = %v, want 11", got)
	}
	if g, ok := rec.find("global", d.Name); !ok || g.missed {
		t.Errorf("global record = %+v, want hit", g)
	}
}

func TestSubmitDagHopelessResubmitAborts(t *testing.T) {
	// A DAG whose recomputed deadline after a local abort is already in
	// the past abandons the whole run — the tree path's behavior.
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, nil, node.WithLocalAbort())
	d := task.MustParseDag("a@0:4 b@0:1 ; a>b")
	d.Root().RealDeadline = 2
	blocker := task.MustSimple("L", 0, 3)
	blocker.RealDeadline = 1e6
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitDag(d); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	g, ok := rec.find("global", d.Name)
	if !ok || !g.missed {
		t.Fatalf("global record = %+v, want missed (hopeless resubmit)", g)
	}
	// b never released; aborted by the cascade without a record.
	if _, ok := rec.find("subtask", "b"); ok {
		t.Error("unreleased vertex b must not be recorded")
	}
}

// TestSubmitDagAbortMidGroupStops covers a DAG run ending while a release
// is still in progress. The sibling group {b, c} is released after the
// cluster deadline: b is local-aborted the moment it reaches its idle
// node, and its resubmission is hopeless and aborts the run. The release
// must stop there, as the tree path stops a fan-out: c is never submitted
// or recorded, so nothing calls back into the run, which is recycled and
// serves the next DAG.
func TestSubmitDagAbortMidGroupStops(t *testing.T) {
	eng, nodes, m, rec := rig(t, 4, sda.SerialUD{}, sda.UD{}, nil, node.WithLocalAbort())
	first := task.MustParseDag("a@0:5 b@1:1 c@2:1 d@1:1 e@2:1 f@0:1 ; a>b a>c b>d b>e c>d c>e d>f e>f a>f")
	first.Name = "first"
	first.Root().RealDeadline = 2
	blocker := task.MustSimple("L", 2, 100)
	blocker.RealDeadline = 1e6
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitDag(first); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(6)
	if g, ok := rec.find("global", "first"); !ok || !g.missed {
		t.Fatalf("first global record = %+v, want missed", g)
	}
	var c *task.Task
	for _, n := range first.Nodes() {
		if n.Task.Name == "c" {
			c = n.Task
		}
	}
	if !c.VirtualDeadline.IsNever() || !c.Aborted || nodes[2].QueueLen() != 0 {
		t.Errorf("c: vdl %v, aborted %v, node 2 queue %d; want never released, aborted, empty queue",
			c.VirtualDeadline, c.Aborted, nodes[2].QueueLen())
	}
	if len(m.runPool) != 1 {
		t.Fatalf("aborted run not recycled (pool %d, want 1)", len(m.runPool))
	}

	second := task.MustParseDag("x@3:200")
	second.Name = "second"
	second.Root().RealDeadline = eng.Now().Add(1000)
	if err := m.SubmitDag(second); err != nil {
		t.Fatal(err)
	}
	if len(m.runPool) != 0 {
		t.Errorf("second DAG did not reuse the recycled run (pool %d)", len(m.runPool))
	}
	eng.Run()
	if g, ok := rec.find("global", "second"); !ok || g.missed || g.finish != 206 {
		t.Fatalf("second global record = %+v, want hit at 206", g)
	}
	if _, ok := rec.find("subtask", "c"); ok {
		t.Error("the unreleased vertex c was recorded")
	}
	if n := rec.count("global"); n != 2 {
		t.Errorf("global records = %d, want 2", n)
	}
	if len(m.runPool) != 1 {
		t.Errorf("pool after the second run = %d, want 1", len(m.runPool))
	}
}

func TestSubmitDagErrors(t *testing.T) {
	_, _, m, _ := rig(t, 1, sda.SerialUD{}, sda.UD{}, nil)
	if err := m.SubmitDag(nil); err == nil {
		t.Error("nil DAG accepted")
	}
	noDL := task.MustParseDag("a b ; a>b")
	if err := m.SubmitDag(noDL); !errors.Is(err, ErrNoDeadline) {
		t.Errorf("missing deadline err = %v", err)
	}
	badNode := task.MustParseDag("a@7:1")
	badNode.Root().RealDeadline = 5
	if err := m.SubmitDag(badNode); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad node err = %v", err)
	}
	cyc := task.NewDag("cyc")
	a := cyc.MustAddTask(task.MustSimple("a", 0, 1))
	b := cyc.MustAddTask(task.MustSimple("b", 0, 1))
	cyc.MustAddEdge(a, b)
	cyc.MustAddEdge(b, a)
	if err := m.SubmitDag(cyc); err == nil {
		t.Error("cyclic DAG accepted")
	}
}

func TestSubmitDagBornDead(t *testing.T) {
	// With PM abortion, a DAG submitted past its deadline is abandoned
	// immediately without touching any node.
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	if _, err := eng.At(10, func() {
		d := task.MustParseDag("a@0:1 b@0:1 ; a>b")
		d.Root().RealDeadline = 5
		if err := m.SubmitDag(d); err != nil {
			t.Errorf("born-dead submit: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if rec.count("global") != 1 {
		t.Fatalf("global records = %d, want 1", rec.count("global"))
	}
	if rec.count("subtask") != 0 {
		t.Errorf("subtask records = %d, want 0", rec.count("subtask"))
	}
}

func TestSubmitDagDeterministic(t *testing.T) {
	runOnce := func() ([]record, []string) {
		eng, _, m, _ := rig(t, 3, sda.EQF{}, sda.MustDiv(1), []Option{WithPMAbort()})
		rec := &dagRecorder{}
		m.setRecorder(Recorders(rec))
		d := task.MustParseDag(
			"s@0:1 a@1:3 b@2:2 j@0:1 t@1:2 ; s>a s>b a>j b>j a>t j>t")
		d.Root().RealDeadline = 12
		if err := m.SubmitDag(d); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return rec.records, rec.submits
	}
	r1, s1 := runOnce()
	r2, s2 := runOnce()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("record streams differ:\n%v\n%v", r1, r2)
	}
	if !reflect.DeepEqual(s1, s2) || len(s1) != 1 {
		t.Errorf("RecordDagSubmit calls = %v / %v, want one identical entry", s1, s2)
	}
}
