package procmgr

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// record is one recorded outcome.
type record struct {
	name   string
	kind   string // "local", "subtask", "global"
	missed bool
	finish simtime.Time
}

// testRecorder accumulates outcomes for assertions.
type testRecorder struct {
	records []record
	dags    []string // names of the DAGs RecordGlobal carried
}

var _ Recorder = (*testRecorder)(nil)

func (r *testRecorder) RecordLocal(t *task.Task, missed bool) {
	r.records = append(r.records, record{t.Name, "local", missed, t.Finish})
}

func (r *testRecorder) RecordSubtask(t *task.Task, missed bool) {
	r.records = append(r.records, record{t.Name, "subtask", missed, t.Finish})
}

func (r *testRecorder) RecordGlobal(t *task.Task, d *task.Dag, missed bool) {
	r.records = append(r.records, record{t.Name, "global", missed, t.Finish})
	if d != nil {
		r.dags = append(r.dags, d.Name)
	}
}

func (r *testRecorder) find(kind, name string) (record, bool) {
	for _, rec := range r.records {
		if rec.kind == kind && rec.name == name {
			return rec, true
		}
	}
	return record{}, false
}

func (r *testRecorder) count(kind string) int {
	n := 0
	for _, rec := range r.records {
		if rec.kind == kind {
			n++
		}
	}
	return n
}

// rig builds an engine, k nodes and a manager.
func rig(t *testing.T, k int, ssp sda.SSP, psp sda.PSP, mopts []Option, nopts ...node.Option) (*des.Engine, []*node.Node, *Manager, *testRecorder) {
	t.Helper()
	eng := des.New()
	nodes := make([]*node.Node, k)
	for i := range nodes {
		nodes[i] = node.New(i, eng, nopts...)
	}
	rec := &testRecorder{}
	opts := append([]Option{WithRecorder(rec)}, mopts...)
	m := New(eng, nodes, ssp, psp, opts...)
	return eng, nodes, m, rec
}

func TestLocalTaskCompletes(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, nil)
	l := task.MustSimple("L", 0, 2)
	l.RealDeadline = 5
	if err := m.SubmitLocal(l); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, ok := rec.find("local", "L")
	if !ok {
		t.Fatal("local not recorded")
	}
	if got.missed || got.finish != 2 {
		t.Errorf("record = %+v, want hit at 2", got)
	}
	if l.VirtualDeadline != l.RealDeadline {
		t.Error("local tasks schedule by their real deadline")
	}
}

func TestLocalTaskMiss(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, nil)
	l := task.MustSimple("L", 0, 10)
	l.RealDeadline = 5
	if err := m.SubmitLocal(l); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := rec.find("local", "L")
	if !got.missed {
		t.Error("late local task should be recorded missed")
	}
}

func TestParallelGlobalFinishAtMax(t *testing.T) {
	eng, _, m, rec := rig(t, 4, sda.SerialUD{}, sda.UD{}, nil)
	g := task.MustParallel("G",
		task.MustSimple("s0", 0, 1),
		task.MustSimple("s1", 1, 4),
		task.MustSimple("s2", 2, 2),
		task.MustSimple("s3", 3, 3),
	)
	g.RealDeadline = 10
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, ok := rec.find("global", "G")
	if !ok {
		t.Fatal("global not recorded")
	}
	if got.missed || got.finish != 4 {
		t.Errorf("global = %+v, want hit at 4 (max of subtasks)", got)
	}
	if rec.count("subtask") != 4 {
		t.Errorf("subtask records = %d, want 4", rec.count("subtask"))
	}
}

func TestGlobalMissesWhenOneSubtaskLate(t *testing.T) {
	eng, _, m, rec := rig(t, 2, sda.SerialUD{}, sda.UD{}, nil)
	g := task.MustParallel("G",
		task.MustSimple("fast", 0, 1),
		task.MustSimple("slow", 1, 9),
	)
	g.RealDeadline = 5
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := rec.find("global", "G")
	if !got.missed {
		t.Error("global with one tardy subtask must miss")
	}
	fast, _ := rec.find("subtask", "fast")
	slow, _ := rec.find("subtask", "slow")
	if fast.missed {
		t.Error("fast subtask finished before the global deadline")
	}
	if !slow.missed {
		t.Error("slow subtask should be a miss")
	}
}

func TestSerialStagesRunInOrder(t *testing.T) {
	eng, nodes, m, rec := rig(t, 3, sda.SerialUD{}, sda.UD{}, nil)
	_ = nodes
	a := task.MustSimple("a", 0, 1)
	b := task.MustSimple("b", 1, 2)
	c := task.MustSimple("c", 2, 3)
	g := task.MustSerial("G", a, b, c)
	g.RealDeadline = 10
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Finish != 1 || b.Finish != 3 || c.Finish != 6 {
		t.Errorf("finishes = %v %v %v, want 1 3 6", a.Finish, b.Finish, c.Finish)
	}
	if b.Arrival != 1 || c.Arrival != 3 {
		t.Errorf("stage releases = %v %v, want 1 3 (precedence enforced)", b.Arrival, c.Arrival)
	}
	got, _ := rec.find("global", "G")
	if got.missed || got.finish != 6 {
		t.Errorf("global = %+v, want hit at 6", got)
	}
}

func TestOnlineEQFUsesActualReleaseTimes(t *testing.T) {
	// Two serial stages with pex 2 and 2, end-to-end deadline 12.
	// Stage 1 released at 0: slack 8, EQF share 4 -> dl 6.
	// Stage 1 actually finishes at 2 (no contention), so stage 2 is
	// released at 2 with remaining slack 12-2-2 = 8 -> dl 12.
	eng, _, m, _ := rig(t, 2, sda.EQF{}, sda.UD{}, nil)
	a := task.MustSimple("a", 0, 2)
	b := task.MustSimple("b", 1, 2)
	g := task.MustSerial("G", a, b)
	g.RealDeadline = 12
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.VirtualDeadline != 6 {
		t.Errorf("stage 1 vdl = %v, want 6", a.VirtualDeadline)
	}
	if b.Arrival != 2 {
		t.Errorf("stage 2 release = %v, want 2", b.Arrival)
	}
	if b.VirtualDeadline != 12 {
		t.Errorf("stage 2 vdl = %v, want 12", b.VirtualDeadline)
	}
}

func TestDivPrioritisesSubtaskOverLocal(t *testing.T) {
	// A blocker occupies the node; a local with deadline 8 and a DIV-1
	// subtask with real group deadline 16 (n=2 -> vdl = 16/2 = 8) tie on
	// UD but under DIV-1 the subtask's vdl is 1 + (16-1)/2 = 8.5... use
	// clean numbers: global arrives at 0.
	eng, _, m, rec := rig(t, 2, sda.SerialUD{}, sda.MustDiv(1), nil)

	blocker := task.MustSimple("blocker", 0, 3)
	blocker.RealDeadline = 3
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	local := task.MustSimple("local", 0, 1)
	local.RealDeadline = 9
	if err := m.SubmitLocal(local); err != nil {
		t.Fatal(err)
	}
	g := task.MustParallel("G",
		task.MustSimple("sub0", 0, 1),
		task.MustSimple("sub1", 1, 1),
	)
	g.RealDeadline = 16 // DIV-1 gives vdl = 0 + 16/(2*1) = 8 < 9
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	sub0, _ := rec.find("subtask", "sub0")
	loc, _ := rec.find("local", "local")
	if !(sub0.finish < loc.finish) {
		t.Errorf("DIV-1 subtask should precede the local: sub at %v, local at %v",
			sub0.finish, loc.finish)
	}
	// Sanity: under UD (vdl 16 > 9) the order would flip.
	if g.Children[0].VirtualDeadline != 8 {
		t.Errorf("sub0 vdl = %v, want 8", g.Children[0].VirtualDeadline)
	}
}

func TestGFBeatsUrgentLocal(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.GF{}, nil)
	blocker := task.MustSimple("blocker", 0, 3)
	blocker.RealDeadline = 3
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	urgent := task.MustSimple("urgent", 0, 1)
	urgent.RealDeadline = 4 // earlier than the global's deadline
	if err := m.SubmitLocal(urgent); err != nil {
		t.Fatal(err)
	}
	g := task.MustParallel("G", task.MustSimple("sub", 0, 1))
	g.RealDeadline = 100
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	sub, _ := rec.find("subtask", "sub")
	loc, _ := rec.find("local", "urgent")
	if !(sub.finish < loc.finish) {
		t.Errorf("GF subtask must cut the line: sub at %v, local at %v", sub.finish, loc.finish)
	}
}

func TestStockTradingTreeCompletes(t *testing.T) {
	eng, _, m, rec := rig(t, 6, sda.EQF{}, sda.MustDiv(1), nil)
	g := task.MustParse("[init@0:1 [a@1:1||b@2:1||c@3:1||d@4:1] mid@5:1 [e@1:1||f@2:1||g@3:1||h@4:1] fin@0:1]")
	g.RealDeadline = 25
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, ok := rec.find("global", "")
	if !ok {
		t.Fatal("global not recorded")
	}
	// Critical path = 1+1+1+1+1 = 5 with no contention.
	if got.missed || got.finish != 5 {
		t.Errorf("global = %+v, want hit at 5", got)
	}
	if rec.count("subtask") != 11 {
		t.Errorf("subtasks recorded = %d, want 11", rec.count("subtask"))
	}
}

func TestPMAbortKillsGlobalAtDeadline(t *testing.T) {
	eng, nodes, m, rec := rig(t, 2, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	g := task.MustParallel("G",
		task.MustSimple("fast", 0, 1),
		task.MustSimple("slow", 1, 50),
	)
	g.RealDeadline = 5
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Now() != 5 {
		t.Errorf("simulation ended at %v; abort should free the server at 5", eng.Now())
	}
	got, _ := rec.find("global", "G")
	if !got.missed {
		t.Error("aborted global must be missed")
	}
	if !g.Aborted {
		t.Error("root not marked aborted")
	}
	if nodes[1].Busy() {
		t.Error("server still busy after abort")
	}
	slow, ok := rec.find("subtask", "slow")
	if !ok || !slow.missed {
		t.Errorf("slow subtask record = %+v, want missed", slow)
	}
}

func TestPMAbortSkipsCompletedRun(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	g := task.MustParallel("G", task.MustSimple("s", 0, 1))
	g.RealDeadline = 5
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := rec.find("global", "G")
	if got.missed {
		t.Error("task finished at 1, well before the deadline")
	}
	if rec.count("global") != 1 {
		t.Errorf("global recorded %d times", rec.count("global"))
	}
}

func TestPMAbortLocalTask(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	blocker := task.MustSimple("blocker", 0, 10)
	blocker.RealDeadline = 20
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	victim := task.MustSimple("victim", 0, 1)
	victim.RealDeadline = 5 // expires while blocker is in service
	if err := m.SubmitLocal(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := rec.find("local", "victim")
	if !got.missed {
		t.Error("aborted local must be missed")
	}
	if !victim.Aborted {
		t.Error("victim not marked aborted")
	}
	b, _ := rec.find("local", "blocker")
	if b.missed {
		t.Error("blocker finishes at 10 < 20")
	}
	if rec.count("local") != 2 {
		t.Errorf("local records = %d, want 2", rec.count("local"))
	}
}

func TestPMAbortStopsSerialPipeline(t *testing.T) {
	eng, _, m, _ := rig(t, 2, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	a := task.MustSimple("a", 0, 4)
	b := task.MustSimple("b", 1, 4)
	g := task.MustSerial("G", a, b)
	g.RealDeadline = 2
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Arrival != 0 && !b.Finish.IsNever() {
		t.Error("stage b should never run after the abort")
	}
	if eng.Now() != 2 {
		t.Errorf("ended at %v, want 2", eng.Now())
	}
}

func TestLocalAbortResubmitsWithFreshDeadline(t *testing.T) {
	// Node aborts expired subtasks; the manager recomputes the deadline
	// from the remaining budget and resubmits, so the subtask completes.
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.MustDiv(100), nil,
		node.WithLocalAbort())
	blocker := task.MustSimple("blocker", 0, 4)
	blocker.RealDeadline = 4
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	g := task.MustParallel("G", task.MustSimple("sub", 0, 1))
	g.RealDeadline = 100
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// DIV-100 initially sets vdl = 100/100 = 1, which expires during the
	// blocker's service (t=4). The node aborts it; the manager reassigns
	// vdl = 4 + 96/100 = 4.96 and resubmits; it then completes at 5.
	sub, ok := rec.find("subtask", "sub")
	if !ok {
		t.Fatal("subtask never recorded")
	}
	if sub.missed || sub.finish != 5 {
		t.Errorf("sub = %+v, want hit at 5", sub)
	}
	got, _ := rec.find("global", "G")
	if got.missed {
		t.Error("global should complete after resubmission")
	}
	if math.Abs(float64(g.Children[0].VirtualDeadline)-4.96) > 1e-9 {
		t.Errorf("reassigned vdl = %v, want 4.96", g.Children[0].VirtualDeadline)
	}
}

func TestLocalAbortHopelessAbandonsRun(t *testing.T) {
	// GF in delta mode always produces a virtual deadline in the deep
	// past; with local aborts the subtask is aborted immediately and the
	// reassignment is hopeless, so the run is abandoned — the paper's "GF
	// is inapplicable with local aborts".
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.GF{UseDelta: true}, nil,
		node.WithLocalAbort())
	blocker := task.MustSimple("blocker", 0, 1)
	blocker.RealDeadline = 1
	if err := m.SubmitLocal(blocker); err != nil {
		t.Fatal(err)
	}
	g := task.MustParallel("G", task.MustSimple("sub", 0, 1))
	g.RealDeadline = 50
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, ok := rec.find("global", "G")
	if !ok {
		t.Fatal("global never recorded")
	}
	if !got.missed || !g.Aborted {
		t.Error("hopeless resubmission must abandon the run as missed")
	}
}

func TestSubmitErrors(t *testing.T) {
	_, _, m, _ := rig(t, 2, sda.SerialUD{}, sda.UD{}, nil)

	if err := m.SubmitLocal(nil); !errors.Is(err, ErrNotLocal) {
		t.Errorf("nil local err = %v", err)
	}
	comp := task.MustSerial("s", task.MustSimple("a", 0, 1), task.MustSimple("b", 0, 1))
	comp.RealDeadline = 5
	if err := m.SubmitLocal(comp); !errors.Is(err, ErrNotLocal) {
		t.Errorf("composite local err = %v", err)
	}
	noDl := task.MustSimple("x", 0, 1)
	if err := m.SubmitLocal(noDl); !errors.Is(err, ErrNoDeadline) {
		t.Errorf("no-deadline local err = %v", err)
	}
	offGrid := task.MustSimple("y", 7, 1)
	offGrid.RealDeadline = 5
	if err := m.SubmitLocal(offGrid); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad-node local err = %v", err)
	}

	if err := m.SubmitGlobal(nil); err == nil {
		t.Error("nil global accepted")
	}
	gNoDl := task.MustParallel("g", task.MustSimple("a", 0, 1))
	if err := m.SubmitGlobal(gNoDl); !errors.Is(err, ErrNoDeadline) {
		t.Errorf("no-deadline global err = %v", err)
	}
	gBad := task.MustParallel("g", task.MustSimple("a", 9, 1))
	gBad.RealDeadline = 5
	if err := m.SubmitGlobal(gBad); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad-node global err = %v", err)
	}
	gInvalid := task.MustParallel("g", task.MustSimple("a", 0, 1))
	gInvalid.Children[0].Exec = -1
	gInvalid.RealDeadline = 5
	if err := m.SubmitGlobal(gInvalid); err == nil {
		t.Error("invalid tree accepted")
	}
}

func TestBornDeadGlobalUnderPMAbort(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	// Advance the clock past the deadline first.
	if _, err := eng.At(10, func() {
		g := task.MustParallel("G", task.MustSimple("s", 0, 1))
		g.RealDeadline = 5 // already past
		if err := m.SubmitGlobal(g); err != nil {
			t.Errorf("SubmitGlobal: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, ok := rec.find("global", "G")
	if !ok || !got.missed {
		t.Errorf("born-dead global = %+v, want recorded miss", got)
	}
}

func TestBornDeadLocalUnderPMAbort(t *testing.T) {
	eng, _, m, rec := rig(t, 1, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	if _, err := eng.At(10, func() {
		l := task.MustSimple("L", 0, 1)
		l.RealDeadline = 5
		if err := m.SubmitLocal(l); err != nil {
			t.Errorf("SubmitLocal: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, ok := rec.find("local", "L")
	if !ok || !got.missed {
		t.Errorf("born-dead local = %+v, want recorded miss", got)
	}
}

func TestNopRecorder(t *testing.T) {
	eng, _, m, _ := rig(t, 1, sda.SerialUD{}, sda.UD{}, nil)
	m.setRecorder(NopRecorder{})
	l := task.MustSimple("L", 0, 1)
	l.RealDeadline = 5
	if err := m.SubmitLocal(l); err != nil {
		t.Fatal(err)
	}
	eng.Run() // must not panic
	if !l.Finished() {
		t.Error("task did not finish")
	}
}

func TestNestedSerialInsideParallel(t *testing.T) {
	// [a || [b c]]: the serial branch enforces b -> c while a runs
	// concurrently; the group finishes at max(a, b+c).
	eng, _, m, rec := rig(t, 3, sda.EQF{}, sda.MustDiv(1), nil)
	a := task.MustSimple("a", 0, 5)
	b := task.MustSimple("b", 1, 2)
	c := task.MustSimple("c", 2, 2)
	g := task.MustParallel("G", a, task.MustSerial("", b, c))
	g.RealDeadline = 20
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c.Arrival != 2 {
		t.Errorf("c released at %v, want 2 (after b)", c.Arrival)
	}
	got, _ := rec.find("global", "G")
	if got.finish != 5 {
		t.Errorf("global finish = %v, want 5", got.finish)
	}
}

func (r *testRecorder) countByName(kind, name string) int {
	n := 0
	for _, rec := range r.records {
		if rec.kind == kind && rec.name == name {
			n++
		}
	}
	return n
}

// TestPMAbortTimerFiresOncePerTask floods two nodes with competing global
// tasks so most real-deadline timers fire. Every global task must be
// recorded exactly once — a timer firing twice, or a timer firing after
// completion, would double-record — and every subtask resolves exactly
// once as done or aborted.
func TestPMAbortTimerFiresOncePerTask(t *testing.T) {
	eng, _, m, rec := rig(t, 2, sda.SerialUD{}, sda.UD{}, []Option{WithPMAbort()})
	const tasks = 12
	for i := 0; i < tasks; i++ {
		g := task.MustParallel(fmt.Sprintf("G%d", i),
			task.MustSimple(fmt.Sprintf("G%d.a", i), 0, 1),
			task.MustSimple(fmt.Sprintf("G%d.b", i), 1, 1),
		)
		g.RealDeadline = simtime.Time(2 + float64(i)*0.5)
		if err := m.SubmitGlobal(g); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	misses := 0
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("G%d", i)
		if n := rec.countByName("global", name); n != 1 {
			t.Errorf("%s recorded %d times, want exactly 1", name, n)
		}
		for _, leaf := range []string{name + ".a", name + ".b"} {
			if n := rec.countByName("subtask", leaf); n != 1 {
				t.Errorf("%s recorded %d times, want exactly 1", leaf, n)
			}
		}
		if got, _ := rec.find("global", name); got.missed {
			misses++
		}
	}
	if misses == 0 {
		t.Error("overloaded rig produced no aborted tasks; the timer path was not exercised")
	}
	if misses == tasks {
		t.Error("every task aborted; expected the earliest ones to complete")
	}
}

// startLog records the items nodes put in service.
type startLog struct{ started []*node.Item }

func (l *startLog) OnStart(_ *node.Node, it *node.Item, _ simtime.Time) {
	l.started = append(l.started, it)
}
func (*startLog) OnEnqueue(*node.Node, *node.Item, simtime.Time) {}
func (*startLog) OnFinish(*node.Node, *node.Item, simtime.Time)  {}
func (*startLog) OnAbort(*node.Node, *node.Item, simtime.Time)   {}
func (*startLog) OnPreempt(*node.Node, *node.Item, simtime.Time) {}

// TestAbortRun checks abortion through an item: the owning run, tree or
// DAG, is abandoned as a deadline abort abandons it (every outstanding
// subtask withdrawn, the next stage never released, the task recorded once
// as missed), and stale or foreign items are refused.
func TestAbortRun(t *testing.T) {
	log := &startLog{}
	eng, nodes, m, rec := rig(t, 2, sda.SerialUD{}, sda.UD{}, nil, node.WithObserver(log))
	g := task.MustSerial("G",
		task.MustParallel("P", task.MustSimple("a", 0, 4), task.MustSimple("b", 1, 6)),
		task.MustSimple("c", 0, 1),
	)
	g.RealDeadline = 100
	if err := m.SubmitGlobal(g); err != nil {
		t.Fatal(err)
	}
	if len(log.started) != 2 {
		t.Fatalf("%d items started, want a and b", len(log.started))
	}
	a := log.started[0]
	ref := a.Ref()
	other := New(eng, nodes, sda.SerialUD{}, sda.UD{})
	if other.AbortRun(a) {
		t.Error("a foreign manager aborted the run")
	}
	eng.RunUntil(2)
	if !m.AbortRun(a) {
		t.Fatal("AbortRun of a live run reported false")
	}
	if ref.Item() != nil {
		t.Error("the withdrawn item was not recycled")
	}
	eng.Run()
	if !g.Aborted || nodes[0].Busy() || nodes[1].Busy() || nodes[0].Served()+nodes[1].Served() != 0 {
		t.Errorf("aborted %v, busy %v/%v, served %d/%d; want an abandoned run and idle nodes",
			g.Aborted, nodes[0].Busy(), nodes[1].Busy(), nodes[0].Served(), nodes[1].Served())
	}
	if got, ok := rec.find("global", "G"); !ok || !got.missed || rec.count("global") != 1 {
		t.Errorf("global records %+v (%d), want one missed", got, rec.count("global"))
	}
	if _, ok := rec.find("subtask", "c"); ok || len(log.started) != 2 {
		t.Error("the stage after the abort was released")
	}
	if m.AbortRun(log.started[1]) {
		t.Error("AbortRun of a finished run reported true")
	}

	t.Run("dag", func(t *testing.T) {
		log := &startLog{}
		eng, nodes, m, _ := rig(t, 2, sda.SerialUD{}, sda.UD{}, nil, node.WithObserver(log))
		rec := &dagRecorder{}
		m.setRecorder(rec)
		// An N-shaped cluster: a and b start at once, c joins them, d
		// follows b alone.
		d := task.MustParseDag("a@0:4 b@1:6 c@0:1 d@1:1 ; a>c b>c b>d")
		d.Root().RealDeadline = 100
		if err := m.SubmitDag(d); err != nil {
			t.Fatal(err)
		}
		if len(log.started) != 2 {
			t.Fatalf("%d vertices started, want a and b", len(log.started))
		}
		a := log.started[0]
		refs := []node.ItemRef{a.Ref(), log.started[1].Ref()}
		other := New(eng, nodes, sda.SerialUD{}, sda.UD{})
		if other.AbortRun(a) {
			t.Error("a foreign manager aborted the DAG run")
		}
		eng.RunUntil(2)
		if !m.AbortRun(a) {
			t.Fatal("AbortRun of a live DAG run reported false")
		}
		for i, ref := range refs {
			if ref.Item() != nil {
				t.Errorf("withdrawn item %d was not recycled", i)
			}
		}
		eng.Run()
		if !d.Root().Aborted || nodes[0].Busy() || nodes[1].Busy() || nodes[0].Served()+nodes[1].Served() != 0 {
			t.Errorf("aborted %v, busy %v/%v, served %d/%d; want an abandoned run and idle nodes",
				d.Root().Aborted, nodes[0].Busy(), nodes[1].Busy(), nodes[0].Served(), nodes[1].Served())
		}
		if got, ok := rec.find("global", d.Name); !ok || !got.missed || rec.count("global") != 1 {
			t.Errorf("global records %+v (%d), want one missed", got, rec.count("global"))
		}
		if len(rec.dags) != 1 || rec.dags[0] != d.Name {
			t.Errorf("RecordGlobal carried DAGs %v, want %q", rec.dags, d.Name)
		}
		for _, n := range d.Nodes() {
			if !n.Task.Aborted {
				t.Errorf("vertex %q not marked aborted", n.Task.Name)
			}
		}
		if rec.count("subtask") != 2 || len(log.started) != 2 {
			t.Errorf("%d subtask records, %d starts; want a and b only", rec.count("subtask"), len(log.started))
		}
		if m.AbortRun(log.started[1]) {
			t.Error("AbortRun of a finished DAG run reported true")
		}
	})
}

// TestNewCtrlResetsReusedEntry checks that newCtrl, which sets a control
// block field by field in a slab entry that a previous run may have used,
// leaves nothing of the old block behind: with every field of the entry
// set first, cluster state included, the new block must equal the
// composite literal of newCtrl's arguments.
func TestNewCtrlResetsReusedEntry(t *testing.T) {
	r := &run{ctrls: make([]ctrl, 1, 2)}
	v := reflect.ValueOf(&r.ctrls[0]).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		// The fields are unexported; reach them through their address.
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Int:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s is a %v: teach this test to set it", name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("field %s still zero", name)
		}
	}
	r.ctrls = r.ctrls[:0]
	parent, leaf := new(ctrl), task.MustSimple("x", 0, 1)
	c := r.newCtrl(parent, 3, leaf, nil)
	if c != &r.ctrls[0] {
		t.Fatal("newCtrl did not use the slab's first entry")
	}
	if want := (ctrl{run: r, t: leaf, parent: parent, stageIdx: 3}); !reflect.DeepEqual(*c, want) {
		t.Errorf("reused entry %+v, want %+v", *c, want)
	}
}
