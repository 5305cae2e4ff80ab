package obs

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch()
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mix signs and magnitudes across several decades, like lateness.
		v := rng.ExpFloat64() * 100
		if rng.Intn(3) == 0 {
			v = -v
		}
		s.Add(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := s.Quantile(q)
		relErr := math.Abs(got-exact) / math.Max(math.Abs(exact), 1e-12)
		if relErr > 3*sketchAlpha {
			t.Errorf("q=%g: got %g want ~%g (rel err %g)", q, got, exact, relErr)
		}
	}
	if s.Quantile(0) != vals[0] {
		t.Errorf("q=0: got %g want exact min %g", s.Quantile(0), vals[0])
	}
	if s.Quantile(1) != vals[len(vals)-1] {
		t.Errorf("q=1: got %g want exact max %g", s.Quantile(1), vals[len(vals)-1])
	}
}

func TestSketchEmptyAndNaN(t *testing.T) {
	s := NewSketch()
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty sketch should report zeros")
	}
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Errorf("NaN should be ignored, count=%d", s.Count())
	}
	s.Add(0)
	if s.Count() != 1 || s.Quantile(0.5) != 0 {
		t.Errorf("zero band: count=%d q50=%g", s.Count(), s.Quantile(0.5))
	}
}

// TestSketchInfinityKeysAboveFinite checks that an infinite magnitude
// buckets above every finite one on every platform, for both signs: +Inf
// is the largest value a sketch reports and its bucket exports last, so
// it cannot drag a low quantile to 0.
func TestSketchInfinityKeysAboveFinite(t *testing.T) {
	pos := NewSketch()
	pos.Add(1)
	pos.Add(math.Inf(1))
	if q := pos.Quantile(0.25); math.Abs(q-1) > sketchAlpha {
		t.Errorf("{1, +Inf}: Quantile(0.25) = %g, want 1 within %g", q, sketchAlpha)
	}
	if q := pos.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("{1, +Inf}: Quantile(1) = %g, want +Inf", q)
	}
	neg := NewSketch()
	for _, x := range []float64{-1, -1, math.Inf(-1)} {
		neg.Add(x)
	}
	if q := neg.Quantile(0.75); math.Abs(q+1) > sketchAlpha {
		t.Errorf("{-Inf, -1, -1}: Quantile(0.75) = %g, want -1 within %g", q, sketchAlpha)
	}
	if q := neg.Quantile(0.25); !math.IsInf(q, -1) {
		t.Errorf("{-Inf, -1, -1}: Quantile(0.25) = %g, want -Inf", q)
	}
	for _, c := range []struct {
		name string
		s    *Sketch
		neg  bool
	}{{"+Inf", pos, false}, {"-Inf", neg, true}} {
		n, p, _ := c.s.buckets()
		b := p
		if c.neg {
			b = n
		}
		if len(b) != 2 || b[1].Key != sketchKeyInf || b[0].Key >= b[1].Key {
			t.Errorf("%s buckets %v: want the finite bucket, then the infinite one last", c.name, b)
		}
	}
}

// TestSketchMergeMatchesUnion is the load-bearing property for the
// cross-replication merge: sharding a stream and merging the shard
// sketches must produce the identical bucket state (hence identical
// quantiles) as one sketch fed the whole stream, in any shard order.
func TestSketchMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole := NewSketch()
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = NewSketch()
	}
	for i := 0; i < 8000; i++ {
		v := (rng.Float64() - 0.3) * 500
		whole.Add(v)
		shards[i%len(shards)].Add(v)
	}
	mergeOrder := func(order []int) *Sketch {
		m := NewSketch()
		for _, i := range order {
			m.Merge(shards[i])
		}
		return m
	}
	a := mergeOrder([]int{0, 1, 2, 3})
	b := mergeOrder([]int{3, 1, 0, 2})
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("q=%g: merge order changed quantile: %g vs %g", q, a.Quantile(q), b.Quantile(q))
		}
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%g: merged %g != union %g", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged count/min/max diverge from union")
	}
}

// TestSketchSnapshotRoundTrip: a registry snapshot holds a private clone
// of each sketch. It reports what the live sketch did when the snapshot
// was taken, later observations do not reach it, and merging into a
// clone of the snapshot leaves the snapshot as it was.
func TestSketchSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	k := r.Sketch("sda_w", "", "w")
	for _, v := range []float64{-3, -0.5, 0, 1e-12, 2, 2, 40, 1e6, math.Inf(1)} {
		k.Observe(v)
	}
	qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	want := k.Quantiles(qs...)
	snap := r.Snapshot()
	check := func(what string) {
		t.Helper()
		s := snap.sketch("sda_w")
		if got := s.Quantiles(qs...); !slices.Equal(got, want) {
			t.Errorf("%s: quantiles %v, want %v", what, got, want)
		}
		if sk := snap.Sketches[0]; sk.Count != 9 || s.Count() != 9 || sk.Sum != s.Sum() {
			t.Errorf("%s: count %d/%d sum %g/%g, want 9", what, sk.Count, s.Count(), sk.Sum, s.Sum())
		}
	}
	check("snapshot")
	for i := 0; i < 100; i++ {
		k.Observe(-7)
	}
	check("after live observations")
	agg := snap.clone()
	if err := agg.Merge(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if agg.Sketches[0].Count != 109+9 {
		t.Errorf("merged count %d, want %d", agg.Sketches[0].Count, 109+9)
	}
	check("after a merge into its clone")
}

func TestRegistrySnapshotMerge(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		c := r.Counter("sda_done_total", "", "done")
		r.GaugeFunc("sda_inflight", "", "inflight", func() float64 { return 2 })
		k := r.Sketch("sda_latency", "", "latency")
		c.Add(3)
		k.Observe(1.5)
		return r
	}
	a, b := build().Snapshot(), build().Snapshot()
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Counters[0].V != 6 {
		t.Errorf("counter merged to %d, want 6", a.Counters[0].V)
	}
	if a.Gauges[0].V != 4 {
		t.Errorf("gauge merged to %g, want 4", a.Gauges[0].V)
	}
	if a.Sketches[0].Count != 2 || a.Sketches[0].Sum != 3 {
		t.Errorf("sketch merged count=%d sum=%g, want 2, 3", a.Sketches[0].Count, a.Sketches[0].Sum)
	}

	// Mismatched wiring is an error, not silent misattribution.
	other := NewRegistry()
	other.Counter("sda_other_total", "", "other")
	snap := other.Snapshot()
	if err := snap.Merge(build().Snapshot()); err == nil {
		t.Errorf("merging differently wired registries should fail")
	}
}

// TestRegistrySnapshotPrometheusMatchesLive: a snapshot's exposition
// shows each func-backed gauge as it read live when the snapshot was
// taken; a later change of the model shows only in a later snapshot.
// Sketches render as summaries.
func TestRegistrySnapshotPrometheusMatchesLive(t *testing.T) {
	r := NewRegistry()
	r.Counter("sda_x_total", `node="0"`, "x").Add(7)
	v := 1.25
	r.GaugeFunc("sda_y", "", "y", func() float64 { return v })
	r.Sketch("sda_w", "", "w").Observe(2)

	expose := func(rs RegistrySnapshot) string {
		var b strings.Builder
		if err := rs.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := r.Snapshot()
	v = 3
	if got := expose(before); !strings.Contains(got, "\nsda_y 1.25\n") {
		t.Errorf("snapshot taken at 1.25 exposes:\n%s", got)
	}
	after := expose(r.Snapshot())
	if !strings.Contains(after, "\nsda_y 3\n") {
		t.Errorf("snapshot taken at 3 exposes:\n%s", after)
	}
	if !strings.Contains(after, `sda_w{quantile="0.5"}`) {
		t.Errorf("sketch should render as summary quantiles:\n%s", after)
	}
	if !strings.Contains(after, "# TYPE sda_w summary") {
		t.Errorf("sketch family should be TYPE summary")
	}
}
