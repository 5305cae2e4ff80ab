package task

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// condDiamond builds the canonical conditional diamond: s branches to a
// (prob p) or b (prob 1-p), both join at t.
func condDiamond(t *testing.T, p float64) *CondDag {
	t.Helper()
	d := NewDag("diamond")
	s := d.MustAddTask(MustParse("s@0:1"))
	a := d.MustAddTask(MustParse("a@1:2"))
	b := d.MustAddTask(MustParse("b@2:4"))
	j := d.MustAddTask(MustParse("t@3:1"))
	d.MustAddEdge(s, a)
	d.MustAddEdge(s, b)
	d.MustAddEdge(a, j)
	d.MustAddEdge(b, j)
	cd := NewCondDag(d)
	if err := cd.SetBranch(s, []float64{p, 1 - p}); err != nil {
		t.Fatalf("SetBranch: %v", err)
	}
	return cd
}

func TestSetBranchValidation(t *testing.T) {
	d := NewDag("")
	s := d.MustAddTask(MustParse("s"))
	a := d.MustAddTask(MustParse("a"))
	b := d.MustAddTask(MustParse("b"))
	d.MustAddEdge(s, a)
	d.MustAddEdge(s, b)
	cd := NewCondDag(d)

	cases := []struct {
		name  string
		probs []float64
		want  error
	}{
		{"negative", []float64{-0.5, 1.5}, ErrBranchProb},
		{"zero", []float64{0, 1}, ErrBranchProb},
		{"above one", []float64{1.2, 0.3}, ErrBranchProb},
		{"nan", []float64{math.NaN(), 0.5}, ErrBranchProb},
		{"sum below one", []float64{0.3, 0.3}, ErrBranchSum},
		{"sum above one", []float64{0.8, 0.8}, ErrBranchSum},
		{"too few", []float64{1}, ErrBranchArity},
		{"too many", []float64{0.2, 0.3, 0.5}, ErrBranchArity},
	}
	for _, tc := range cases {
		if err := cd.SetBranch(s, tc.probs); !errors.Is(err, tc.want) {
			t.Errorf("%s: SetBranch(%v) = %v, want %v", tc.name, tc.probs, err, tc.want)
		}
	}

	// Sink vertices cannot branch.
	if err := cd.SetBranch(a, []float64{1}); !errors.Is(err, ErrNoBranches) {
		t.Errorf("SetBranch on sink = %v, want ErrNoBranches", err)
	}
	// Foreign nodes are rejected.
	other := NewDag("")
	x := other.MustAddTask(MustParse("x"))
	y := other.MustAddTask(MustParse("y"))
	other.MustAddEdge(x, y)
	if err := cd.SetBranch(x, []float64{1}); !errors.Is(err, ErrForeignNode) {
		t.Errorf("SetBranch on foreign node = %v, want ErrForeignNode", err)
	}
	// Valid branch accepted; near-1 sums within tolerance accepted.
	if err := cd.SetBranch(s, []float64{0.3, 0.7}); err != nil {
		t.Errorf("valid SetBranch: %v", err)
	}
	if err := cd.SetBranch(s, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}); !errors.Is(err, ErrBranchArity) {
		t.Errorf("arity recheck: %v", err)
	}
	if err := cd.SetBranch(s, []float64{0.1, 0.9 + 1e-12}); err != nil {
		t.Errorf("within-tolerance sum rejected: %v", err)
	}
}

func TestCondValidateDetectsLateEdges(t *testing.T) {
	d := NewDag("")
	s := d.MustAddTask(MustParse("s"))
	a := d.MustAddTask(MustParse("a"))
	d.MustAddEdge(s, a)
	cd := NewCondDag(d)
	if err := cd.SetBranch(s, []float64{1}); err != nil {
		t.Fatalf("SetBranch: %v", err)
	}
	if err := cd.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Adding an out-edge after SetBranch breaks the arity invariant.
	b := d.MustAddTask(MustParse("b"))
	d.MustAddEdge(s, b)
	if err := cd.Validate(); !errors.Is(err, ErrBranchArity) {
		t.Errorf("Validate after late edge = %v, want ErrBranchArity", err)
	}
}

// TestCondValidateErrorIsDeterministic breaks two branch points of one
// graph at once: Validate must report the same one — the smaller vertex
// id — on every call, not whichever a map iteration happens to visit
// first.
func TestCondValidateErrorIsDeterministic(t *testing.T) {
	d := MustParseDag("p q a b c ; p>a q>b")
	p, q := d.Nodes()[0], d.Nodes()[1]
	cd := NewCondDag(d)
	// Mark q first, so insertion order cannot explain a stable answer.
	for _, n := range []*DagNode{q, p} {
		if err := cd.SetBranch(n, []float64{1}); err != nil {
			t.Fatalf("SetBranch(%s): %v", n.Task.Name, err)
		}
	}
	d.MustAddEdge(q, d.Nodes()[4])
	d.MustAddEdge(p, d.Nodes()[4])
	first := cd.Validate()
	if !errors.Is(first, ErrBranchArity) {
		t.Fatalf("Validate = %v, want ErrBranchArity", first)
	}
	want := `task: branch probabilities must cover every out-edge: "p" has 2 out-edges but 1 probabilities`
	if first.Error() != want {
		t.Fatalf("Validate = %q, want %q", first, want)
	}
	for i := 0; i < 200; i++ {
		if err := cd.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", i, err, want)
		}
	}
	if cd.CondCount() != 2 {
		t.Errorf("CondCount = %d, want 2", cd.CondCount())
	}
}

func TestRealizationsDiamond(t *testing.T) {
	cd := condDiamond(t, 0.3)
	reals, err := cd.Realizations(0)
	if err != nil {
		t.Fatalf("Realizations: %v", err)
	}
	if len(reals) != 2 {
		t.Fatalf("diamond has %d realizations, want 2", len(reals))
	}
	var sum float64
	for _, r := range reals {
		sum += r.Prob
		if err := r.Dag.Validate(); err != nil {
			t.Errorf("realization invalid: %v", err)
		}
		if r.Dag.Len() != 3 {
			t.Errorf("realization has %d vertices, want 3 (s, one branch, t)", r.Dag.Len())
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("realization probabilities sum to %v, want 1", sum)
	}
	// Enumeration order is deterministic: first out-edge first.
	if math.Abs(reals[0].Prob-0.3) > 1e-12 || math.Abs(reals[1].Prob-0.7) > 1e-12 {
		t.Errorf("probabilities = %v, %v; want 0.3, 0.7", reals[0].Prob, reals[1].Prob)
	}
	// Branch a (ex 2): s+a+t = 4; branch b (ex 4): s+b+t = 6.
	if got := reals[0].Dag.CriticalPath(); float64(got) != 4 {
		t.Errorf("branch-a critical path = %v, want 4", got)
	}
	if got := reals[1].Dag.CriticalPath(); float64(got) != 6 {
		t.Errorf("branch-b critical path = %v, want 6", got)
	}
}

// TestRealizeFrequencies draws many realizations and checks the empirical
// branch frequencies converge to the configured probabilities — the
// satellite "activation frequencies converge to branch probabilities"
// property, at the task layer. Deterministic seed, CI-safe tolerance.
func TestRealizeFrequencies(t *testing.T) {
	const n = 4000
	const tol = 0.03 // ~4 sigma for p=0.3 at n=4000
	cd := condDiamond(t, 0.3)
	stream := rng.NewSplitter(42).Stream()
	countA := 0
	for i := 0; i < n; i++ {
		d, err := cd.Realize(stream, nil)
		if err != nil {
			t.Fatalf("Realize: %v", err)
		}
		if d.Len() != 3 {
			t.Fatalf("realization has %d vertices, want 3", d.Len())
		}
		for _, v := range d.Nodes() {
			if v.Task.Name == "a" {
				countA++
			}
		}
	}
	freq := float64(countA) / n
	if math.Abs(freq-0.3) > tol {
		t.Errorf("branch-a frequency = %v, want 0.3 +/- %v", freq, tol)
	}
}

// TestRealizeDeterministic pins that a fixed stream yields a fixed
// realization sequence.
func TestRealizeDeterministic(t *testing.T) {
	cd := condDiamond(t, 0.5)
	run := func() []string {
		stream := rng.NewSplitter(7).Stream()
		var out []string
		for i := 0; i < 16; i++ {
			d, err := cd.Realize(stream, nil)
			if err != nil {
				t.Fatalf("Realize: %v", err)
			}
			out = append(out, d.String())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("realization %d differs across identical streams:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestRealizeNestedConditionals exercises a chain of two conditional
// vertices where the second branch point only activates on one side of
// the first — realization counts must not double-count inactive branch
// points.
func TestRealizeNestedConditionals(t *testing.T) {
	// s -> {a (0.5), b (0.5)}; a -> {c (0.25), d (0.75)}; b, c, d -> t.
	cd := MustParseCondDag("s a b c d t ; s>a:0.5 s>b:0.5 a>c:0.25 a>d:0.75 b>t c>t d>t")
	reals, err := cd.Realizations(0)
	if err != nil {
		t.Fatalf("Realizations: %v", err)
	}
	// Outcomes: (a,c), (a,d), (b) — b's side never reaches a's branch.
	if len(reals) != 3 {
		t.Fatalf("got %d realizations, want 3", len(reals))
	}
	wantProbs := []float64{0.125, 0.375, 0.5}
	var sum float64
	for i, r := range reals {
		sum += r.Prob
		if math.Abs(r.Prob-wantProbs[i]) > 1e-12 {
			t.Errorf("realization %d prob = %v, want %v", i, r.Prob, wantProbs[i])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestRealizationsLimit(t *testing.T) {
	// 12 independent binary branch points: 2^12 realizations.
	d := NewDag("")
	cd := NewCondDag(d)
	for i := 0; i < 12; i++ {
		s := d.MustAddTask(MustParse("s" + string(rune('a'+i))))
		x := d.MustAddTask(MustParse("x" + string(rune('a'+i))))
		y := d.MustAddTask(MustParse("y" + string(rune('a'+i))))
		d.MustAddEdge(s, x)
		d.MustAddEdge(s, y)
		if err := cd.SetBranch(s, []float64{0.5, 0.5}); err != nil {
			t.Fatalf("SetBranch: %v", err)
		}
	}
	if _, err := cd.Realizations(64); !errors.Is(err, ErrTooManyRealizations) {
		t.Errorf("Realizations(64) = %v, want ErrTooManyRealizations", err)
	}
	reals, err := cd.Realizations(4096)
	if err != nil {
		t.Fatalf("Realizations(4096): %v", err)
	}
	if len(reals) != 4096 {
		t.Errorf("got %d realizations, want 4096", len(reals))
	}
}

func TestParseCondDag(t *testing.T) {
	cd, err := ParseCondDag("s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t")
	if err != nil {
		t.Fatalf("ParseCondDag: %v", err)
	}
	if cd.CondCount() != 1 {
		t.Fatalf("CondCount = %d, want 1", cd.CondCount())
	}
	s := cd.Dag().Nodes()[0]
	probs, ok := cd.Branch(s)
	if !ok || len(probs) != 2 || probs[0] != 0.3 || probs[1] != 0.7 {
		t.Fatalf("Branch(s) = %v, %v", probs, ok)
	}
	// A plain DAG spec parses with zero conditional vertices and one
	// realization.
	plain, err := ParseCondDag("a b ; a>b")
	if err != nil {
		t.Fatalf("plain spec: %v", err)
	}
	if plain.CondCount() != 0 {
		t.Errorf("plain CondCount = %d", plain.CondCount())
	}
	reals, err := plain.Realizations(0)
	if err != nil || len(reals) != 1 || reals[0].Prob != 1 {
		t.Errorf("plain realizations = %v, %v", reals, err)
	}
}

func TestParseCondDagErrors(t *testing.T) {
	cases := []struct {
		input string
		want  error
	}{
		{"s a b ; s>a:0 s>b:1", ErrBranchProb},
		{"s a b ; s>a:1.5 s>b:0.5", ErrBranchProb},
		{"s a b ; s>a:0.3 s>b:0.3", ErrBranchSum},
		{"s a b ; s>a:0.8 s>b:0.8", ErrBranchSum},
		{"s a b ; s>a:0.5 s>b", ErrBranchArity}, // all-or-none per vertex
		{"s a b ; s>a s>b:0.5", ErrBranchArity},
	}
	for _, tc := range cases {
		if _, err := ParseCondDag(tc.input); !errors.Is(err, tc.want) {
			t.Errorf("ParseCondDag(%q) = %v, want %v", tc.input, err, tc.want)
		}
	}
	// Syntax errors shared with ParseDag still reject.
	for _, bad := range []string{
		"s a ; s>a:",     // missing number
		"s a ; s>a:x",    // not a number
		"s a ; s>a:-0.5", // negative (parseFloat rejects)
		"a b ; a>b b>a",  // cycle
		"a a",            // duplicate names
	} {
		if _, err := ParseCondDag(bad); err == nil {
			t.Errorf("ParseCondDag(%q) accepted", bad)
		}
	}
}

func TestCondDagStringRoundTrip(t *testing.T) {
	cd := MustParseCondDag("s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t")
	printed := cd.String()
	back, err := ParseCondDag(printed)
	if err != nil {
		t.Fatalf("round trip: %v (printed %q)", err, printed)
	}
	if back.String() != printed {
		t.Fatalf("canonical form unstable: %q -> %q", printed, back.String())
	}
	if back.CondCount() != cd.CondCount() {
		t.Fatalf("CondCount changed: %d -> %d", cd.CondCount(), back.CondCount())
	}
}
