package obs

import (
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/simtime"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	g := r.Gauge("g", "", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge value = %g, want 2.5", got)
	}
	v := 7.0
	gf := r.GaugeFunc("gf", "", "help", func() float64 { return v })
	if got := gf.Value(); got != 7 {
		t.Fatalf("func gauge value = %g, want 7", got)
	}
	v = 9
	if got := gf.Value(); got != 9 {
		t.Fatalf("func gauge must read live state, got %g want 9", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Set on func-backed gauge must panic")
		}
	}()
	gf.Set(1)
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", `node="1"`, "")
	r.Counter("dup", `node="2"`, "") // same name, different labels: fine
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate (name, labels) must panic")
		}
	}()
	r.Counter("dup", `node="1"`, "")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sda_b_total", "", "a counter")
	c.Add(3)
	r.GaugeFunc("sda_a_gauge", `node="0"`, "a gauge", func() float64 { return 1.5 })
	h := r.Histogram("sda_c_hist", "", "a histogram", 0, 10, 2)
	h.Observe(1)  // bucket [0,5)
	h.Observe(7)  // bucket [5,10)
	h.Observe(-1) // underflow: folds into every bucket
	h.Observe(42) // overflow: +Inf only

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP sda_a_gauge a gauge
# TYPE sda_a_gauge gauge
sda_a_gauge{node="0"} 1.5
# HELP sda_b_total a counter
# TYPE sda_b_total counter
sda_b_total 3
# HELP sda_c_hist a histogram
# TYPE sda_c_hist histogram
sda_c_hist_bucket{le="5"} 2
sda_c_hist_bucket{le="10"} 3
sda_c_hist_bucket{le="+Inf"} 4
sda_c_hist_sum 49
sda_c_hist_count 4
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Deterministic: a second export is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Fatalf("repeated exposition differs")
	}
}

func TestSamplerRingWrap(t *testing.T) {
	v := 0.0
	s := newSampler(10, 3, []Probe{{Name: "p", Read: func() float64 { return v }}})
	for i := 1; i <= 5; i++ {
		v = float64(i * 100)
		s.sample(simtime.Time(i * 10))
	}
	if s.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", s.Ticks())
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3 (ring capacity)", s.Len())
	}
	times, vals := s.Series("p")
	wantT := []float64{30, 40, 50}
	wantV := []float64{300, 400, 500}
	for i := range wantT {
		if times[i] != wantT[i] || vals[i] != wantV[i] {
			t.Fatalf("series[%d] = (%g, %g), want (%g, %g)", i, times[i], vals[i], wantT[i], wantV[i])
		}
	}
	if ts, vs := s.Series("nope"); ts != nil || vs != nil {
		t.Fatalf("unknown probe must return nil series")
	}

	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "time,p\n30,300\n40,400\n50,500\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestSamplerArmStopsAtHorizon(t *testing.T) {
	eng := des.New()
	s := newSampler(50, 16, []Probe{{Name: "pending", Read: func() float64 { return float64(eng.Pending()) }}})
	if err := s.arm(eng, 200); err != nil {
		t.Fatal(err)
	}
	// Drain: the chain must terminate at the horizon.
	eng.Run()
	if got := s.Ticks(); got != 4 { // ticks at 50, 100, 150, 200
		t.Fatalf("ticks = %d, want 4", got)
	}
	if eng.Now() != 200 {
		t.Fatalf("engine drained at %v, want 200", eng.Now())
	}
}

func TestSamplerArmBeyondHorizonIsNoop(t *testing.T) {
	eng := des.New()
	s := newSampler(500, 4, nil)
	if err := s.arm(eng, 200); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("no tick should be scheduled when the first tick is past the horizon")
	}
}

func TestCoarsenFoldsTails(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "", 0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	h.Observe(-5)  // underflow
	h.Observe(120) // overflow
	labels, counts := coarsen(h, 20)
	if len(labels) != 22 || len(counts) != 22 {
		t.Fatalf("got %d groups, want 20 + 2 tails", len(labels))
	}
	if labels[0] != "<0" || counts[0] != 1 {
		t.Fatalf("underflow bar = (%s, %g), want (<0, 1)", labels[0], counts[0])
	}
	if labels[21] != ">=100" || counts[21] != 1 {
		t.Fatalf("overflow bar = (%s, %g), want (>=100, 1)", labels[21], counts[21])
	}
	var total float64
	for _, c := range counts[1:21] {
		if c != 5 { // 100 observations over 20 groups
			t.Fatalf("interior bars should hold 5 each, got %v", counts[1:21])
		}
		total += c
	}
	if total != 100 {
		t.Fatalf("interior mass = %g, want 100", total)
	}
}
