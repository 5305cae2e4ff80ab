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
	v := 7.0
	gf := r.GaugeFunc("gf", "", "help", func() float64 { return v })
	if got := gf.Value(); got != 7 {
		t.Fatalf("func gauge value = %g, want 7", got)
	}
	v = 9
	if got := gf.Value(); got != 9 {
		t.Fatalf("func gauge must read live state, got %g want 9", got)
	}
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
	k := r.Sketch("sda_c_quantiles", "", "a sketch")
	k.Observe(0) // the exact zero band: every quantile reads 0
	k.Observe(0)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP sda_a_gauge a gauge
# TYPE sda_a_gauge gauge
sda_a_gauge{node="0"} 1.5
# HELP sda_b_total a counter
# TYPE sda_b_total counter
sda_b_total 3
# HELP sda_c_quantiles a sketch
# TYPE sda_c_quantiles summary
sda_c_quantiles{quantile="0.5"} 0
sda_c_quantiles{quantile="0.9"} 0
sda_c_quantiles{quantile="0.99"} 0
sda_c_quantiles_sum 0
sda_c_quantiles_count 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Deterministic: a second export is byte-identical.
	var b2 strings.Builder
	if err := r.Snapshot().WritePrometheus(&b2); err != nil {
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
	// The CSV holds the latest three samples, oldest first.
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
