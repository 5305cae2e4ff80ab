package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Counter is a monotonically increasing instrument. Counters are written
// on the simulation goroutine only; reads happen after the run, so no
// synchronization is needed (the whole telemetry layer shares the DES
// kernel's single-threaded discipline).
type Counter struct {
	name   string
	labels string // preformatted, e.g. `node="3"`; "" for none
	help   string
	v      uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Name returns the instrument name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value read live from the model state
// (registered via GaugeFunc), so the sampler and the exporters always
// observe the current truth without the model having to push updates.
type Gauge struct {
	name   string
	labels string
	help   string
	read   func() float64
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.read() }

// Name returns the instrument name.
func (g *Gauge) Name() string { return g.name }

// SketchInstrument is a log-bucketed quantile distribution instrument
// wrapping Sketch: its buckets are geometric, so the relative error of
// any quantile is bounded regardless of range, and two shards' sketches
// merge losslessly (see Sketch).
type SketchInstrument struct {
	name   string
	labels string
	help   string
	s      *Sketch
}

// Observe records one observation.
func (k *SketchInstrument) Observe(x float64) { k.s.Add(x) }

// Count returns the number of observations.
func (k *SketchInstrument) Count() uint64 { return k.s.Count() }

// Mean returns the mean observation.
func (k *SketchInstrument) Mean() float64 { return k.s.Mean() }

// Quantile returns the approximate q-quantile (see Sketch).
func (k *SketchInstrument) Quantile(q float64) float64 { return k.s.Quantile(q) }

// Quantiles evaluates several quantiles at once.
func (k *SketchInstrument) Quantiles(qs ...float64) []float64 { return k.s.Quantiles(qs...) }

// Name returns the instrument name.
func (k *SketchInstrument) Name() string { return k.name }

// Registry holds named instruments. Registration order is preserved and
// exports are sorted, so two identical runs produce byte-identical
// expositions. Instruments are identified by (name, labels); registering
// a duplicate panics — it is a wiring error, caught at setup.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	sketches []*SketchInstrument
	seen     map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]struct{})}
}

// claim reserves (name, labels), panicking on duplicates.
func (r *Registry) claim(name, labels string) {
	key := name + "{" + labels + "}"
	if _, dup := r.seen[key]; dup {
		panic(fmt.Sprintf("obs: duplicate instrument %s", key))
	}
	r.seen[key] = struct{}{}
}

// Counter registers a counter. labels is a preformatted Prometheus label
// body (e.g. `node="3"`) or "".
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.claim(name, labels)
	c := &Counter{name: name, labels: labels, help: help}
	r.counters = append(r.counters, c)
	return c
}

// GaugeFunc registers a gauge whose value is read live from fn.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) *Gauge {
	r.claim(name, labels)
	g := &Gauge{name: name, labels: labels, help: help, read: fn}
	r.gauges = append(r.gauges, g)
	return g
}

// Sketch registers a log-bucketed quantile sketch instrument.
func (r *Registry) Sketch(name, labels, help string) *SketchInstrument {
	r.claim(name, labels)
	k := &SketchInstrument{name: name, labels: labels, help: help, s: NewSketch()}
	r.sketches = append(r.sketches, k)
	return k
}

// --- snapshots ---------------------------------------------------------------

// CounterSnap is one counter's state in a RegistrySnapshot.
type CounterSnap struct {
	Name, Labels, Help string
	V                  uint64
}

// GaugeSnap is one gauge's value at snapshot time.
type GaugeSnap struct {
	Name, Labels, Help string
	V                  float64
}

// SketchSnap is one quantile sketch's state: its count, sum and extremes,
// and a private clone of the sketch that only this snapshot reads and
// merges into.
type SketchSnap struct {
	Name, Labels, Help string
	Count              uint64
	Sum, Min, Max      float64
	s                  *Sketch
}

// RegistrySnapshot is an immutable copy of a registry's instrument
// values, in registration order. It is the mergeable unit of the
// cross-replication telemetry path: Merge folds another shard's snapshot
// in (counters add, gauges-at-end add, sketches merge), and
// WritePrometheus renders it.
type RegistrySnapshot struct {
	Counters []CounterSnap
	Gauges   []GaugeSnap
	Sketches []SketchSnap
}

// Snapshot copies the registry's current instrument values. Func-backed
// gauges are read live, so call it on the simulation goroutine.
func (r *Registry) Snapshot() RegistrySnapshot {
	rs := RegistrySnapshot{
		Counters: make([]CounterSnap, len(r.counters)),
		Gauges:   make([]GaugeSnap, len(r.gauges)),
		Sketches: make([]SketchSnap, len(r.sketches)),
	}
	for i, c := range r.counters {
		rs.Counters[i] = CounterSnap{Name: c.name, Labels: c.labels, Help: c.help, V: c.v}
	}
	for i, g := range r.gauges {
		rs.Gauges[i] = GaugeSnap{Name: g.name, Labels: g.labels, Help: g.help, V: g.Value()}
	}
	for i, k := range r.sketches {
		rs.Sketches[i] = SketchSnap{
			Name: k.name, Labels: k.labels, Help: k.help,
			Count: k.s.Count(), Sum: k.s.Sum(), Min: k.s.Min(), Max: k.s.Max(),
			s: k.s.clone(),
		}
	}
	return rs
}

// clone deep-copies the snapshot so a Merge into the copy cannot mutate
// the original's backing arrays.
func (rs RegistrySnapshot) clone() RegistrySnapshot {
	cp := RegistrySnapshot{
		Counters: append([]CounterSnap(nil), rs.Counters...),
		Gauges:   append([]GaugeSnap(nil), rs.Gauges...),
		Sketches: append([]SketchSnap(nil), rs.Sketches...),
	}
	for i := range cp.Sketches {
		cp.Sketches[i].s = cp.Sketches[i].s.clone()
	}
	return cp
}

// Merge folds other into rs. Both snapshots must come from identically
// wired registries (same instruments in the same order — true for the
// replication shards of one sim.Config); a mismatch is a wiring error and
// is reported rather than silently misattributed. Counters and sketches
// add losslessly; gauges-at-end add too, so per-node depth gauges and the
// in-flight gauge become fleet totals.
func (rs *RegistrySnapshot) Merge(other RegistrySnapshot) error {
	if len(rs.Counters) != len(other.Counters) || len(rs.Gauges) != len(other.Gauges) ||
		len(rs.Sketches) != len(other.Sketches) {
		return fmt.Errorf("obs: merge snapshots from differently wired registries")
	}
	for i := range rs.Counters {
		if rs.Counters[i].Name != other.Counters[i].Name || rs.Counters[i].Labels != other.Counters[i].Labels {
			return fmt.Errorf("obs: merge counter %d: %s{%s} vs %s{%s}", i,
				rs.Counters[i].Name, rs.Counters[i].Labels, other.Counters[i].Name, other.Counters[i].Labels)
		}
		rs.Counters[i].V += other.Counters[i].V
	}
	for i := range rs.Gauges {
		if rs.Gauges[i].Name != other.Gauges[i].Name || rs.Gauges[i].Labels != other.Gauges[i].Labels {
			return fmt.Errorf("obs: merge gauge %d: %s{%s} vs %s{%s}", i,
				rs.Gauges[i].Name, rs.Gauges[i].Labels, other.Gauges[i].Name, other.Gauges[i].Labels)
		}
		rs.Gauges[i].V += other.Gauges[i].V
	}
	for i := range rs.Sketches {
		a, b := &rs.Sketches[i], &other.Sketches[i]
		if a.Name != b.Name || a.Labels != b.Labels {
			return fmt.Errorf("obs: merge sketch %d: %s{%s} vs %s{%s}", i, a.Name, a.Labels, b.Name, b.Labels)
		}
		a.s.Merge(b.s)
		a.Count, a.Sum, a.Min, a.Max = a.s.Count(), a.s.Sum(), a.s.Min(), a.s.Max()
	}
	return nil
}

// counter returns the value of the counter with the given name and label
// set, or 0 when absent.
func (rs RegistrySnapshot) counter(name, labels string) uint64 {
	for i := range rs.Counters {
		if rs.Counters[i].Name == name && rs.Counters[i].Labels == labels {
			return rs.Counters[i].V
		}
	}
	return 0
}

// gauge returns the value of the gauge with the given name and label
// set, or 0 when absent.
func (rs RegistrySnapshot) gauge(name, labels string) float64 {
	for i := range rs.Gauges {
		if rs.Gauges[i].Name == name && rs.Gauges[i].Labels == labels {
			return rs.Gauges[i].V
		}
	}
	return 0
}

// sketch returns the snapshot's clone of the named sketch, or nil. The
// caller only reads it.
func (rs RegistrySnapshot) sketch(name string) *Sketch {
	for i := range rs.Sketches {
		if rs.Sketches[i].Name == name {
			return rs.Sketches[i].s
		}
	}
	return nil
}

// sketchQuantiles is the fixed quantile grid sketches expose in the
// Prometheus summary rendering.
var sketchQuantiles = []float64{0.5, 0.9, 0.99}

// family is one exposition group: every sample of one metric name.
type family struct {
	name, help, kind string
	lines            []string
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, one HELP/TYPE header
// per family, samples sorted by label set. Sketches render as summaries
// (one sample per quantile in sketchQuantiles plus _sum and _count).
// Values are formatted with %g at full float64 precision, so identical
// snapshots produce identical bytes.
func (rs RegistrySnapshot) WritePrometheus(w io.Writer) error {
	fams := make(map[string]*family)
	add := func(name, help, kind, line string) {
		f := fams[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind}
			fams[name] = f
		}
		f.lines = append(f.lines, line)
	}
	for _, c := range rs.Counters {
		add(c.Name, c.Help, "counter", sample(c.Name, c.Labels, float64(c.V)))
	}
	for _, g := range rs.Gauges {
		add(g.Name, g.Help, "gauge", sample(g.Name, g.Labels, g.V))
	}
	for _, sk := range rs.Sketches {
		for _, q := range sketchQuantiles {
			add(sk.Name, sk.Help, "summary",
				sample(sk.Name, joinLabels(sk.Labels, fmt.Sprintf(`quantile="%g"`, q)), sk.s.Quantile(q)))
		}
		add(sk.Name, sk.Help, "summary", sample(sk.Name+"_sum", sk.Labels, sk.Sum))
		add(sk.Name, sk.Help, "summary", sample(sk.Name+"_count", sk.Labels, float64(sk.Count)))
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		// Samples stay in registration order within a family: per-node
		// label sets register in ascending node order and sketch
		// quantiles in ascending order, so the output is already in the
		// natural reading order — and deterministic.
		for _, line := range f.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sample renders one exposition line.
func sample(name, labels string, v float64) string {
	if labels == "" {
		return fmt.Sprintf("%s %g", name, v)
	}
	return fmt.Sprintf("%s{%s} %g", name, labels, v)
}

// joinLabels concatenates two preformatted label bodies.
func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}
