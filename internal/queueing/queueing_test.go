package queueing

import (
	"errors"
	"math"
	"testing"
)

func TestMM1Formulas(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	if got := q.Rho(); got != 0.5 {
		t.Errorf("rho = %v, want 0.5", got)
	}
	checks := []struct {
		name string
		fn   func() (float64, error)
		want float64
	}{
		{"MeanResponse", q.MeanResponse, 2},
		{"MeanWait", q.MeanWait, 1},
		{"MeanNumber", q.MeanNumber, 1},
		{"MeanQueueLength", q.MeanQueueLength, 0.5},
	}
	for _, c := range checks {
		got, err := c.fn()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMM1Relations(t *testing.T) {
	// Internal consistency: E[T] = E[W] + 1/mu; Little's law L = lambda*T.
	q := MM1{Lambda: 0.7, Mu: 1.3}
	T, _ := q.MeanResponse()
	W, _ := q.MeanWait()
	if math.Abs(T-(W+1/q.Mu)) > 1e-12 {
		t.Errorf("T (%v) != W + 1/mu (%v)", T, W+1/q.Mu)
	}
	N, _ := q.MeanNumber()
	if math.Abs(N-LittlesLaw(q.Lambda, T)) > 1e-12 {
		t.Errorf("N (%v) != lambda*T (%v)", N, LittlesLaw(q.Lambda, T))
	}
	Nq, _ := q.MeanQueueLength()
	if math.Abs(Nq-LittlesLaw(q.Lambda, W)) > 1e-12 {
		t.Errorf("Nq (%v) != lambda*W (%v)", Nq, LittlesLaw(q.Lambda, W))
	}
}

func TestMM1Unstable(t *testing.T) {
	for _, q := range []MM1{
		{Lambda: 1, Mu: 1},
		{Lambda: 2, Mu: 1},
		{Lambda: 0.5, Mu: 0},
		{Lambda: -1, Mu: 1},
	} {
		if _, err := q.MeanResponse(); !errors.Is(err, ErrUnstable) {
			t.Errorf("%+v: err = %v, want ErrUnstable", q, err)
		}
	}
}

func TestResponseQuantile(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	// Median of Exp(0.5) = ln 2 / 0.5.
	got, err := q.ResponseQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Ln2 / 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("median = %v, want %v", got, want)
	}
	if _, err := q.ResponseQuantile(1); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := q.ResponseQuantile(-0.1); err == nil {
		t.Error("p<0 accepted")
	}
}

func TestProbResponseExceeds(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	got, err := q.ProbResponseExceeds(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-1); math.Abs(got-want) > 1e-12 {
		t.Errorf("P(T>2) = %v, want %v", got, want)
	}
	if p, _ := q.ProbResponseExceeds(-1); p != 1 {
		t.Errorf("P(T>-1) = %v, want 1", p)
	}
	if p, _ := q.ProbResponseExceeds(0); p != 1 {
		t.Errorf("P(T>0) = %v, want 1", p)
	}
}

func TestMissProbUniformSlack(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	// Degenerate slack: P(W > s) = rho * exp(-nu*s).
	got, err := q.MissProbUniformSlack(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * math.Exp(-0.5*2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("point slack = %v, want %v", got, want)
	}
	// Uniform range: averaging must land between the endpoint values.
	lo, _ := q.MissProbUniformSlack(5, 5)
	hi, _ := q.MissProbUniformSlack(1.25, 1.25)
	mid, err := q.MissProbUniformSlack(1.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < mid && mid < hi) {
		t.Errorf("mid %v not between endpoints %v and %v", mid, lo, hi)
	}
	if _, err := q.MissProbUniformSlack(5, 1); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestLittlesLaw(t *testing.T) {
	if got := LittlesLaw(2, 3); got != 6 {
		t.Errorf("L = %v, want 6", got)
	}
}

func TestMMCReducesToMM1(t *testing.T) {
	m1 := MM1{Lambda: 0.5, Mu: 1}
	mc := MMC{Lambda: 0.5, Mu: 1, Servers: 1}
	w1, _ := m1.MeanWait()
	wc, err := mc.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w1-wc) > 1e-12 {
		t.Errorf("M/M/1 wait %v != M/M/c(1) wait %v", w1, wc)
	}
	// Erlang C with one server is just rho.
	pc, _ := mc.ErlangC()
	if math.Abs(pc-0.5) > 1e-12 {
		t.Errorf("ErlangC(c=1) = %v, want rho = 0.5", pc)
	}
}

func TestMMCKnownValue(t *testing.T) {
	// Classic check: lambda=2, mu=1, c=3 (a=2 Erlangs, rho=2/3).
	// Erlang B: B(3,2) = (8/6)/(1+2+2+8/6) = (4/3)/(19/3) = 4/19.
	// Erlang C: B / (1 - rho(1-B)) = (4/19)/(1 - (2/3)(15/19)) = 4/9.
	q := MMC{Lambda: 2, Mu: 1, Servers: 3}
	pc, err := q.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc-4.0/9.0) > 1e-12 {
		t.Errorf("ErlangC = %v, want 4/9", pc)
	}
	w, _ := q.MeanWait()
	if want := (4.0 / 9.0) / (3 - 2); math.Abs(w-want) > 1e-12 {
		t.Errorf("MeanWait = %v, want %v", w, want)
	}
}

func TestMMCUnstable(t *testing.T) {
	for _, q := range []MMC{
		{Lambda: 3, Mu: 1, Servers: 3},
		{Lambda: 1, Mu: 1, Servers: 0},
		{Lambda: 1, Mu: 0, Servers: 2},
	} {
		if _, err := q.ErlangC(); !errors.Is(err, ErrUnstable) {
			t.Errorf("%+v: err = %v, want ErrUnstable", q, err)
		}
	}
}

func TestMMCPoolingBeatsSeparateQueues(t *testing.T) {
	// A pooled M/M/2 outperforms two separate M/M/1 queues at the same
	// total load — the classic pooling advantage.
	separate := MM1{Lambda: 0.7, Mu: 1}
	pooled := MMC{Lambda: 1.4, Mu: 1, Servers: 2}
	ws, _ := separate.MeanWait()
	wp, err := pooled.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if wp >= ws {
		t.Errorf("pooled wait %v should beat separate %v", wp, ws)
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	m := MM1{Lambda: 0.6, Mu: 1}
	g := MG1{Lambda: 0.6, Mu: 1, SCV: 1}
	wm, _ := m.MeanWait()
	wg, err := g.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wm-wg) > 1e-12 {
		t.Errorf("M/G/1 with SCV 1 (%v) != M/M/1 (%v)", wg, wm)
	}
}

func TestMG1DeterministicHalvesWait(t *testing.T) {
	exp := MG1{Lambda: 0.5, Mu: 1, SCV: 1}
	det := MG1{Lambda: 0.5, Mu: 1, SCV: 0}
	we, _ := exp.MeanWait()
	wd, err := det.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wd-we/2) > 1e-12 {
		t.Errorf("M/D/1 wait %v should be half of M/M/1 %v", wd, we)
	}
}

func TestMG1HighVariabilityHurts(t *testing.T) {
	hyper := MG1{Lambda: 0.5, Mu: 1, SCV: 4}
	exp := MG1{Lambda: 0.5, Mu: 1, SCV: 1}
	wh, _ := hyper.MeanWait()
	we, _ := exp.MeanWait()
	if wh <= we {
		t.Errorf("SCV 4 wait %v should exceed SCV 1 wait %v", wh, we)
	}
	// P-K is linear in SCV: (1+4)/2 vs (1+1)/2 -> 2.5x.
	if math.Abs(wh/we-2.5) > 1e-9 {
		t.Errorf("ratio = %v, want 2.5", wh/we)
	}
}

func TestMG1Unstable(t *testing.T) {
	for _, q := range []MG1{
		{Lambda: 1, Mu: 1, SCV: 1},
		{Lambda: 0.5, Mu: 0, SCV: 1},
		{Lambda: 0.5, Mu: 1, SCV: -1},
	} {
		if _, err := q.MeanWait(); !errors.Is(err, ErrUnstable) {
			t.Errorf("%+v: err = %v, want ErrUnstable", q, err)
		}
	}
}

func TestMG1Relations(t *testing.T) {
	q := MG1{Lambda: 0.4, Mu: 1, SCV: 0.25}
	w, _ := q.MeanWait()
	tt, _ := q.MeanResponse()
	if math.Abs(tt-(w+1)) > 1e-12 {
		t.Errorf("T (%v) != W + E[S] (%v)", tt, w+1)
	}
	nq, _ := q.MeanQueueLength()
	if math.Abs(nq-LittlesLaw(q.Lambda, w)) > 1e-12 {
		t.Errorf("Nq (%v) != lambda*W (%v)", nq, LittlesLaw(q.Lambda, w))
	}
}

// TestOutputDigest pins the exact bits of every formula over a grid of
// loads, times, slack ranges, server counts and service variabilities.
// The exponentials run through portable.Exp, so every GOARCH and CPU
// must reproduce the digest; with math.Exp, amd64's assembly moved it.
func TestOutputDigest(t *testing.T) {
	var digest uint64
	fold := func(v float64, err error) {
		if err != nil {
			t.Fatal(err)
		}
		digest = digest*1099511628211 ^ math.Float64bits(v)
	}
	for i := 1; i < 20; i++ {
		rho := float64(i) * 0.05
		q := MM1{Lambda: rho, Mu: 1}
		fold(q.MeanResponse())
		fold(q.MeanWait())
		fold(q.MeanNumber())
		fold(q.MeanQueueLength())
		fold(q.ResponseQuantile(rho))
		for x := 0.0; x < 14000; x += 0.37 {
			fold(q.ProbResponseExceeds(x))
			fold(q.MissProbUniformSlack(x, x*1.5))
		}
		for c := 1; c <= 8; c++ {
			m := MMC{Lambda: rho * float64(c), Mu: 1, Servers: c}
			fold(m.ErlangC())
			fold(m.MeanResponse())
			fold(m.MeanQueueLength())
		}
		for _, scv := range []float64{0, 0.25, 1, 4} {
			g := MG1{Lambda: rho, Mu: 1, SCV: scv}
			fold(g.MeanResponse())
			fold(g.MeanQueueLength())
		}
		fold(LittlesLaw(rho, 1/(1-rho)), nil)
	}
	if want := uint64(0xc1cf7b1ef6dc1f39); digest != want {
		t.Errorf("queueing digest = %#x, want %#x", digest, want)
	}
}
