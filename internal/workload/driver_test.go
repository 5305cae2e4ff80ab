package workload

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// countingRecorder tallies outcomes for driver-level integration checks.
type countingRecorder struct {
	locals, subtasks, globals int64
	localMiss, globalMiss     int64
}

func (r *countingRecorder) RecordLocal(_ *task.Task, missed bool) {
	r.locals++
	if missed {
		r.localMiss++
	}
}

func (r *countingRecorder) RecordSubtask(*task.Task, bool) { r.subtasks++ }

func (r *countingRecorder) RecordGlobal(_ *task.Task, _ *task.Dag, missed bool) {
	r.globals++
	if missed {
		r.globalMiss++
	}
}

func driverRig(t *testing.T, spec Spec, seed uint64) (*des.Engine, []*node.Node, *Driver, *countingRecorder) {
	t.Helper()
	eng := des.New()
	nodes := make([]*node.Node, spec.K)
	for i := range nodes {
		nodes[i] = node.New(i, eng)
	}
	rec := &countingRecorder{}
	mgr := procmgr.New(eng, nodes, sda.SerialUD{}, sda.UD{}, procmgr.WithRecorder(rec))
	d, err := NewDriver(eng, mgr, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return eng, nodes, d, rec
}

func TestDriverGeneratesBothStreams(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	eng, _, d, rec := driverRig(t, spec, 42)
	if err := d.Start(5000); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.Locals() == 0 || d.Globals() == 0 {
		t.Fatalf("generated %d locals, %d globals; want both > 0", d.Locals(), d.Globals())
	}
	// Everything generated must eventually be recorded (the system drains).
	if rec.locals != d.Locals() {
		t.Errorf("recorded %d locals of %d generated", rec.locals, d.Locals())
	}
	if rec.globals != d.Globals() {
		t.Errorf("recorded %d globals of %d generated", rec.globals, d.Globals())
	}
	if rec.subtasks != 4*d.Globals() {
		t.Errorf("recorded %d subtasks, want %d", rec.subtasks, 4*d.Globals())
	}
}

func TestDriverArrivalRates(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	const horizon = 20000.0
	eng, _, d, _ := driverRig(t, spec, 7)
	if err := d.Start(simtime.Time(horizon)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// λl per node = 0.375 over 6 nodes -> 2.25/unit; λg = 0.1875/unit.
	gotLocal := float64(d.Locals()) / horizon
	gotGlobal := float64(d.Globals()) / horizon
	if math.Abs(gotLocal-2.25) > 0.08 {
		t.Errorf("local arrival rate %v, want ~2.25", gotLocal)
	}
	if math.Abs(gotGlobal-0.1875) > 0.02 {
		t.Errorf("global arrival rate %v, want ~0.1875", gotGlobal)
	}
}

func TestDriverUtilizationMatchesLoad(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	const horizon = 20000.0
	eng, nodes, d, _ := driverRig(t, spec, 11)
	if err := d.Start(simtime.Time(horizon)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(simtime.Time(horizon))
	var busy float64
	for _, n := range nodes {
		busy += float64(n.BusyTime())
	}
	util := busy / (horizon * float64(spec.K))
	if math.Abs(util-spec.Load) > 0.03 {
		t.Errorf("utilization %v, want ~load %v", util, spec.Load)
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() (int64, int64, simtime.Time) {
		spec := Baseline(FixedParallel{N: 4})
		eng, _, d, _ := driverRig(t, spec, 99)
		if err := d.Start(2000); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return d.Locals(), d.Globals(), eng.Now()
	}
	l1, g1, t1 := run()
	l2, g2, t2 := run()
	if l1 != l2 || g1 != g2 || t1 != t2 {
		t.Errorf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", l1, g1, t1, l2, g2, t2)
	}
}

func TestDriverSeedsDiffer(t *testing.T) {
	counts := func(seed uint64) int64 {
		spec := Baseline(FixedParallel{N: 4})
		eng, _, d, _ := driverRig(t, spec, seed)
		if err := d.Start(2000); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return d.Locals()
	}
	if counts(1) == counts(2) {
		t.Error("different seeds produced identical local counts (suspicious)")
	}
}

func TestDriverPureLocalSystem(t *testing.T) {
	spec := Baseline(nil)
	spec.FracLocal = 1
	eng, _, d, rec := driverRig(t, spec, 5)
	if err := d.Start(5000); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.Globals() != 0 {
		t.Errorf("pure-local system generated %d globals", d.Globals())
	}
	if rec.locals == 0 {
		t.Error("no locals generated")
	}
}

func TestDriverPureGlobalSystem(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	spec.FracLocal = 0
	eng, _, d, _ := driverRig(t, spec, 5)
	if err := d.Start(5000); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.Locals() != 0 {
		t.Errorf("pure-global system generated %d locals", d.Locals())
	}
	if d.Globals() == 0 {
		t.Error("no globals generated")
	}
}

func TestDriverRejectsInvalidSpec(t *testing.T) {
	eng := des.New()
	mgr := procmgr.New(eng, nil, sda.SerialUD{}, sda.UD{})
	bad := Baseline(FixedParallel{N: 4})
	bad.K = 0
	if _, err := NewDriver(eng, mgr, bad, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestDriverZeroLoad(t *testing.T) {
	spec := Baseline(FixedParallel{N: 4})
	spec.Load = 0
	eng, _, d, _ := driverRig(t, spec, 3)
	if err := d.Start(1000); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.Locals() != 0 || d.Globals() != 0 {
		t.Errorf("zero load generated %d locals, %d globals", d.Locals(), d.Globals())
	}
}

// TestMissRateAmplification checks the paper's motivating arithmetic: with
// independent subtasks, MD_global ≈ 1-(1-MD_subtask)^n (Section 4). We run
// the baseline under UD and compare.
func TestMissRateAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	spec := Baseline(FixedParallel{N: 4})
	eng := des.New()
	nodes := make([]*node.Node, spec.K)
	for i := range nodes {
		nodes[i] = node.New(i, eng)
	}
	rec := &missRecorder{}
	mgr := procmgr.New(eng, nodes, sda.SerialUD{}, sda.UD{}, procmgr.WithRecorder(rec))
	d, err := NewDriver(eng, mgr, spec, 123)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(60000); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	mdSub := float64(rec.subMiss) / float64(rec.subs)
	mdGlob := float64(rec.globMiss) / float64(rec.globs)
	predicted := 1 - math.Pow(1-mdSub, 4)
	if math.Abs(mdGlob-predicted) > 0.05 {
		t.Errorf("MD_global = %v, independence predicts %v (MD_subtask %v)",
			mdGlob, predicted, mdSub)
	}
	if mdGlob < mdSub {
		t.Errorf("global miss rate %v should exceed subtask miss rate %v", mdGlob, mdSub)
	}
}

type missRecorder struct {
	subs, subMiss, globs, globMiss int64
}

func (r *missRecorder) RecordLocal(*task.Task, bool) {}

func (r *missRecorder) RecordSubtask(_ *task.Task, missed bool) {
	r.subs++
	if missed {
		r.subMiss++
	}
}

func (r *missRecorder) RecordGlobal(_ *task.Task, _ *task.Dag, missed bool) {
	r.globs++
	if missed {
		r.globMiss++
	}
}
