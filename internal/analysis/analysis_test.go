package analysis

import (
	"math"
	"testing"

	"repro/internal/simtime"
	"repro/internal/task"
)

func TestDagMetrics(t *testing.T) {
	// Diamond: a(1) -> b(2), c(4) -> d(1). vol=8, len=1+4+1=6.
	d := task.MustParseDag("a@0:1 b@1:2 c@2:4 d@3:1 ; a>b a>c b>d c>d")
	m := DagMetrics(d)
	if float64(m.Volume) != 8 {
		t.Errorf("Volume = %v, want 8", m.Volume)
	}
	if float64(m.Critical) != 6 {
		t.Errorf("Critical = %v, want 6", m.Critical)
	}
	if m.Vertices != 4 || m.Depth != 3 || m.Width != 2 {
		t.Errorf("n/depth/width = %d/%d/%d, want 4/3/2", m.Vertices, m.Depth, m.Width)
	}
}

func TestTreeMetrics(t *testing.T) {
	// Serial(1, Parallel(2, 3), 1): vol=7, len=1+3+1=5.
	tree := task.MustParse("[a@0:1 [b@1:2 || c@2:3] d@0:1]")
	m, err := TreeMetrics(tree)
	if err != nil {
		t.Fatalf("TreeMetrics: %v", err)
	}
	if float64(m.Volume) != 7 || float64(m.Critical) != 5 {
		t.Errorf("vol/len = %v/%v, want 7/5", m.Volume, m.Critical)
	}
	if got, want := m.Critical, tree.CriticalPath(); got != want {
		t.Errorf("Critical = %v, tree CriticalPath = %v", got, want)
	}
}

func TestBounds(t *testing.T) {
	m := Metrics{Volume: 10, Critical: 4}
	if got := m.ResponseLower(1); float64(got) != 4 {
		t.Errorf("ResponseLower(1) = %v, want 4", got)
	}
	if got := m.ResponseLower(2); float64(got) != 2 {
		t.Errorf("ResponseLower(2) = %v, want 2", got)
	}
	// Degraded rates clamp to nominal: slow nodes cannot tighten the bound.
	if got := m.ResponseLower(0.5); float64(got) != 4 {
		t.Errorf("ResponseLower(0.5) = %v, want 4", got)
	}
	if got := m.IsolatedUpper(1); float64(got) != 10 {
		t.Errorf("IsolatedUpper(1) = %v, want 10", got)
	}
	if got := m.IsolatedUpper(0.5); float64(got) != 20 {
		t.Errorf("IsolatedUpper(0.5) = %v, want 20", got)
	}
	if got := m.IsolatedUpper(2); float64(got) != 10 {
		t.Errorf("IsolatedUpper(2) = %v, want 10 (fast nodes clamp)", got)
	}
	if !m.Feasible(4, 1) || m.Feasible(3.9, 1) {
		t.Errorf("Feasible boundary wrong")
	}
}

func TestSummarizeCond(t *testing.T) {
	// s(1) branches to a(2) with 0.3 or b(4) with 0.7; both join t(1).
	cd := task.MustParseCondDag("s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t")
	s, err := SummarizeCond(cd, 0)
	if err != nil {
		t.Fatalf("SummarizeCond: %v", err)
	}
	if len(s.Realizations) != 2 {
		t.Fatalf("%d realizations, want 2", len(s.Realizations))
	}
	// E[vol] = 0.3*4 + 0.7*6 = 5.4; E[len] = 0.3*4 + 0.7*6 = 5.4 (chains).
	if math.Abs(s.ExpVolume-5.4) > 1e-12 {
		t.Errorf("ExpVolume = %v, want 5.4", s.ExpVolume)
	}
	if math.Abs(s.ExpCritical-5.4) > 1e-12 {
		t.Errorf("ExpCritical = %v, want 5.4", s.ExpCritical)
	}
	if float64(s.MinCritical) != 4 || float64(s.MaxCritical) != 6 || float64(s.MaxVolume) != 6 {
		t.Errorf("min/max len, max vol = %v/%v/%v, want 4/6/6",
			s.MinCritical, s.MaxCritical, s.MaxVolume)
	}
	wantAct := []float64{1, 0.3, 0.7, 1}
	for i, w := range wantAct {
		if math.Abs(s.Activation[i]-w) > 1e-12 {
			t.Errorf("Activation[%d] = %v, want %v", i, s.Activation[i], w)
		}
	}
	// Nested branch points: b's side never reaches a's branch, so c and
	// d activate only on a's side.
	nested := task.MustParseCondDag("s a b c d t ; s>a:0.5 s>b:0.5 a>c:0.25 a>d:0.75 b>t c>t d>t")
	ns, err := SummarizeCond(nested, 0)
	if err != nil {
		t.Fatalf("SummarizeCond(nested): %v", err)
	}
	// ids: s=0 a=1 b=2 c=3 d=4 t=5
	for i, w := range []float64{1, 0.5, 0.5, 0.125, 0.375, 1} {
		if math.Abs(ns.Activation[i]-w) > 1e-12 {
			t.Errorf("nested Activation[%d] = %v, want %v", i, ns.Activation[i], w)
		}
	}
	if got := s.ExpResponseLower(1); math.Abs(float64(got)-5.4) > 1e-12 {
		t.Errorf("ExpResponseLower = %v, want 5.4", got)
	}
	// Deadline 5: only the a-branch (len 4) fits; the b-branch (len 6)
	// misses under every schedule -> miss ratio >= 0.7.
	if got := s.MissLowerBound(5, 1); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("MissLowerBound(5) = %v, want 0.7", got)
	}
	if got := s.MissLowerBound(6, 1); got != 0 {
		t.Errorf("MissLowerBound(6) = %v, want 0", got)
	}
	if got := s.MissLowerBound(3, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("MissLowerBound(3) = %v, want 1", got)
	}
}

func TestOracleDetectsViolations(t *testing.T) {
	o := NewOracle()
	// A local task that "finished" faster than its execution time.
	bad := task.MustParse("bad@0:5")
	bad.Arrival = 10
	bad.Finish = 12
	o.RecordLocal(bad, false)
	if o.ViolationCount() != 1 {
		t.Fatalf("ViolationCount = %d, want 1 (violations: %v)", o.ViolationCount(), o.Violations())
	}
	// A plausible one passes.
	ok := task.MustParse("ok@0:5")
	ok.Arrival = 10
	ok.Finish = 15
	o.RecordLocal(ok, false)
	if o.ViolationCount() != 1 || o.Checks() != 2 {
		t.Fatalf("checks/violations = %d/%d, want 2/1", o.Checks(), o.ViolationCount())
	}
	// Aborted tasks are censored, not checked.
	ab := task.MustParse("ab@0:5")
	ab.Arrival = 10
	ab.Finish = 11
	ab.Aborted = true
	o.RecordSubtask(ab, true)
	if o.Checks() != 2 || o.Skipped() != 1 {
		t.Fatalf("aborted task was checked (checks=%d skipped=%d)", o.Checks(), o.Skipped())
	}
}

func TestOracleDagOutcome(t *testing.T) {
	o := NewOracle()
	// Chain a(2) -> b(3): critical path 5.
	d := task.MustParseDag("a@0:2 b@1:3 ; a>b")
	root := d.Root()
	root.RealDeadline = 100
	root.Arrival = 0
	root.Finish = 4 // < 5: impossible
	// Without the DAG, the accounting root's own CriticalPath is only
	// max-over-vertices (3), so the response passes.
	o.RecordGlobal(root, nil, false)
	if o.Checks() != 1 || o.ViolationCount() != 0 {
		t.Fatalf("tree view: checks/violations = %d/%d, want 1/0", o.Checks(), o.ViolationCount())
	}
	// With it, the response is judged against the DAG's critical path.
	o.RecordGlobal(root, d, false)
	if o.Checks() != 2 || o.ViolationCount() != 1 {
		t.Fatalf("DAG outcome below critical path not flagged: %v", o.Violations())
	}
}

func TestOracleRateScaling(t *testing.T) {
	o := NewOracle()
	o.SetMaxRate(2)
	// exec 4 at rate 2 -> lower bound 2; response 3 is fine.
	tsk := task.MustParse("a@0:4")
	tsk.Arrival = 0
	tsk.Finish = 3
	o.RecordLocal(tsk, false)
	if o.ViolationCount() != 0 {
		t.Fatalf("rate-scaled bound violated: %v", o.Violations())
	}
	// response 1.9 < 2 is impossible even at double speed.
	tsk2 := task.MustParse("b@0:4")
	tsk2.Arrival = 0
	tsk2.Finish = 1.9
	o.RecordLocal(tsk2, false)
	if o.ViolationCount() != 1 {
		t.Fatalf("impossible response at double speed not flagged")
	}
	// Degraded rates clamp to 1.
	o2 := NewOracle()
	o2.SetMaxRate(0.5)
	tsk3 := task.MustParse("c@0:4")
	tsk3.Arrival = 0
	tsk3.Finish = 3.9
	o2.RecordLocal(tsk3, false)
	if o2.ViolationCount() != 1 {
		t.Fatalf("degraded rate loosened the nominal bound")
	}
}

func TestOracleTolerance(t *testing.T) {
	o := NewOracle()
	tsk := task.MustParse("a@0:5")
	tsk.Arrival = 0
	tsk.Finish = simtime.Time(5 - 1e-9) // within 1e-6 relative tolerance
	o.RecordLocal(tsk, false)
	if o.ViolationCount() != 0 {
		t.Fatalf("float fuzz flagged as violation: %v", o.Violations())
	}
}
