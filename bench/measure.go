package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports for every workload, in the
// order BENCHMARK.json lists them.
var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"rep_ms_p50", "ms"},
	{"pass_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb_per_pass", "MB"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the metrics a traced run reports for every workload.
// Additive quantities are per traced pass; a layer that does no work on a
// workload reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"des.fired", "count/pass"}, {"des.scheduled", "count/pass"}, {"des.cancelled", "count/pass"},
		{"des.batched", "count/pass"}, {"des.pool_hit_ratio", "ratio"}, {"des.depth_mean", "events"},
		{"des.depth_max", "events"},
		{"node.enqueues", "count/pass"}, {"node.starts", "count/pass"}, {"node.aborts", "count/pass"},
		{"node.queue_len_mean", "items"}, {"node.util", "ratio"},
		{"procmgr.releases", "count/pass"}, {"procmgr.globals", "count/pass"}, {"procmgr.subtasks", "count/pass"},
		{"scenario.expand_s", "s/pass"}, {"scenario.timeline_events", "count/pass"}, {"scenario.band_misses", "count/pass"},
		{"analysis.oracle_checks", "count/pass"},
		{"par.occupancy", "ratio"},
		{"obs.spans_total", "count/pass"}, {"obs.spans_dropped", "count/pass"}, {"obs.edges_dropped", "count/pass"},
		{"obs.export_s", "s/pass"}, {"obs.overhead_x", "ratio"},
		{"attrib.analyze_s", "s/pass"},
		{"tracetree.build_s", "s/pass"}, {"tracetree.write_s", "s/pass"},
		{"runtime.gc_cpu_s", "s/pass"}, {"runtime.gc_cycles", "count/pass"}, {"runtime.alloc_objects", "count/pass"},
	}
	for _, l := range profileLayers() {
		defs = append(defs, metricDef{l + ".self_s", "s/pass"})
	}
	return append(defs, metricDef{"trace.overhead_x", "ratio"}, metricDef{"trace.coverage", "ratio"})
}()

// metric is one measured value; n is the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report is the outcome of one workload run.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string // first few failure messages
	passes    []string // one line per measured pass, for reading drift within a run
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runOpts configures one workload run.
type runOpts struct {
	seed     uint64
	params   params
	seconds  float64 // minimum measured time; whole passes repeat until it is reached
	workers  int
	env      env
	traceDir string // traced runs: where cpu.pprof and spans.jsonl go
	pins     pins
}

// Set-up is timed in setupRounds rounds. Each repeats set-up for
// setupRound (at least setupMin times), takes the median, and is followed
// by the host reference. A set-up of a few microseconds timed only once
// would run while the CPU is still waking from the idle before the
// process started.
const (
	setupRounds = 5
	setupRound  = 20 * time.Millisecond
	setupMin    = 5
)

// timeSetUp times the workload's set-up and returns the last runner, the
// per-round medians and the reference timed after each round.
func timeSetUp(w *workload, o runOpts, refWorkers int) (runner, []float64, []time.Duration, error) {
	var (
		run    runner
		rounds []float64
		refs   []time.Duration
	)
	for len(rounds) < setupRounds {
		var times []float64
		start := time.Now()
		for len(times) < setupMin || time.Since(start) < setupRound {
			t := time.Now()
			r, err := w.setup(o.seed, o.params, o.env)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			times = append(times, time.Since(t).Seconds())
			run = r
		}
		rounds = append(rounds, median(times))
		refs = append(refs, hostRef(refWorkers))
	}
	return run, rounds, refs, nil
}

// meter is what a timed run adds around each pass: the memory sampler
// and the host reference, on as many goroutines as the pass keeps busy.
type meter struct {
	mem        *memSampler
	refWorkers int
}

// minPasses is the fewest measured passes in a run, so that every run
// checks that a pass reproduces the first one.
const minPasses = 2

// passes runs whole passes until both the time and the count minimum are
// met, recording each pass's heap allocation. With a meter (timed runs)
// it also records each pass's peak memory and times the host reference
// right after the pass.
func passes(run runner, x *passCtx, o runOpts, m *meter) []*passResult {
	var out []*passResult
	start := time.Now()
	for len(out) < minPasses || time.Since(start).Seconds() < o.seconds {
		before := readRuntime()
		if m != nil {
			m.mem.take()
		}
		x.tr.beginPass()
		p := run(x)
		x.tr.endPass()
		p.alloc = readRuntime().allocBytes - before.allocBytes
		if m != nil {
			p.mem = m.mem.take()
			p.ref = hostRef(m.refWorkers)
		}
		out = append(out, p)
	}
	return out
}

// timedRun measures the end-to-end metrics with tracing off. Times are
// host-adjusted by the references timed just before and just after each
// pass or set-up round; the raw values are printed beside them.
func timedRun(w *workload, o runOpts) (*report, error) {
	rep := &report{}
	if err := runCanary(rep, w, o); err != nil {
		return nil, err
	}
	refWorkers := o.workers
	if w.serial {
		refWorkers = 1
	}
	run, setups, setupRefs, err := timeSetUp(w, o, refWorkers)
	if err != nil {
		return nil, err
	}
	m := &meter{mem: startMemSampler(), refWorkers: refWorkers}
	ps := passes(run, &passCtx{workers: o.workers}, o, m)
	m.mem.close()
	check(rep, "pass", o.pins.forRun(w, o.seed, o.params), ps)

	var reps, repsRaw, rates, ratesRaw, walls, wallsRaw, allocs, mems, refs []float64
	var onWall, offWall, analysis []float64
	var busy, wall float64
	prev := setupRefs[len(setupRefs)-1]
	for i, p := range ps {
		adj := adjust(refWorkers, bracket(prev, p.ref)) // host-adjusted time = raw time x adj
		prev = p.ref
		for _, d := range p.reps {
			reps = append(reps, ms(d)*adj)
			repsRaw = append(repsRaw, ms(d))
			busy += d.Seconds()
		}
		rate := float64(p.events) / p.simWall.Seconds()
		rates, ratesRaw = append(rates, rate/adj), append(ratesRaw, rate)
		walls, wallsRaw = append(walls, p.wall.Seconds()*adj), append(wallsRaw, p.wall.Seconds())
		wall += p.wall.Seconds()
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		mems = append(mems, float64(p.mem)/(1<<20))
		refs = append(refs, ms(p.ref))
		if v, ok := p.extra["analysis_s"]; ok {
			analysis = append(analysis, v*adj)
			onWall = append(onWall, p.extra["obs.on_s"])
			offWall = append(offWall, p.extra["obs.off_s"])
		}
		rep.passes = append(rep.passes, fmt.Sprintf("index=%d wall_s=%.4f sim_s=%.4f ref_ms=%.2f events=%d alloc_mb=%.2f mem_mb=%.2f",
			i, p.wall.Seconds(), p.simWall.Seconds(), ms(p.ref), p.events, float64(p.alloc)/(1<<20), float64(p.mem)/(1<<20)))
	}
	setupAdj := make([]float64, len(setups))
	for i, s := range setups {
		before := setupRefs[i]
		if i > 0 {
			before = setupRefs[i-1]
		}
		setupAdj[i] = s * adjust(refWorkers, bracket(before, setupRefs[i]))
	}
	rep.add("events_per_s", "events/s", median(rates), len(rates))
	rep.add("rep_ms_p50", "ms", median(reps), len(reps))
	rep.add("pass_s", "s", median(walls), len(walls))
	rep.add("setup_s", "s", median(setupAdj), len(setups))
	rep.add("alloc_mb_per_pass", "MB", median(allocs), len(allocs))
	rep.add("peak_mem_mb", "MB", minimum(mems), len(mems))

	// Printed but not part of the JSON result: raw times, workload-specific
	// metrics, and the host reference itself.
	rep.add("events_per_s_raw", "events/s", median(ratesRaw), len(ratesRaw))
	rep.add("rep_ms_p50_raw", "ms", median(repsRaw), len(repsRaw))
	rep.add("pass_s_raw", "s", median(wallsRaw), len(wallsRaw))
	rep.add("setup_s_raw", "s", median(setups), len(setups))
	rep.add("host_ref_ms", "ms", median(refs), len(refs))
	rep.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	if p95, ok := percentile(reps, 0.95); ok {
		rep.add("rep_ms_p95", "ms", p95, len(reps))
	}
	if len(analysis) > 0 {
		rep.add("obs_overhead_x", "ratio", sum(onWall)/sum(offWall), len(onWall))
		rep.add("analysis_s", "s", median(analysis), len(analysis))
	}
	rep.add("par.occupancy", "ratio", busy/(wall*float64(o.workers)), len(ps))
	rep.add("fail_frac", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	return rep, nil
}

// tracedRun measures the per-layer metrics. It first runs one untraced
// pass on all workers (the reference fingerprints and par.occupancy) and
// one untraced pass on one worker (the base of trace.overhead_x), then
// traced passes on one worker under the CPU profiler, the flight recorder
// and the counting hooks. Every pass must reproduce the reference.
func tracedRun(w *workload, o runOpts) (*report, error) {
	rep := &report{}
	if err := runCanary(rep, w, o); err != nil {
		return nil, err
	}
	run, err := w.setup(o.seed, o.params, o.env)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	ref := run(&passCtx{workers: o.workers})
	one := run(&passCtx{workers: 1})

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(o.traceDir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ps := passes(run, &passCtx{workers: 1, tr: tr}, o, nil)
	pprof.StopCPUProfile()
	after := readRuntime()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(filepath.Join(o.traceDir, "spans.jsonl")); err != nil {
		return nil, err
	}
	if tr.err != nil {
		return nil, tr.err
	}

	check(rep, "pass", o.pins.forRun(w, o.seed, o.params), append([]*passResult{ref, one}, ps...))
	n := float64(len(ps))
	perPass := map[string]float64{}
	var wall float64
	var counted int
	var qlen, util float64
	for _, p := range ps {
		wall += p.wall.Seconds()
		for k, v := range p.extra {
			perPass[k] += v
		}
		perPass["procmgr.globals"] += float64(p.globals)
		perPass["procmgr.subtasks"] += float64(p.subtasks)
		counted += p.counted
		qlen += p.qlenSum
		util += p.utilSum
	}
	for k := range perPass {
		perPass[k] /= n
	}
	fl, err := tr.flightStats()
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"des.fired", "des.scheduled", "des.cancelled", "des.batched"} {
		fl[k] /= n
	}
	for k, v := range fl {
		perPass[k] = v
	}
	perPass["node.enqueues"] = float64(tr.count.enqueues) / n
	perPass["node.starts"] = float64(tr.count.starts) / n
	perPass["node.aborts"] = float64(tr.count.aborts) / n
	perPass["procmgr.releases"] = float64(tr.count.releases) / n
	if counted > 0 {
		perPass["node.queue_len_mean"] = qlen / float64(counted)
		perPass["node.util"] = util / float64(counted)
	}
	var busy float64
	for _, d := range ref.reps {
		busy += d.Seconds()
	}
	perPass["par.occupancy"] = busy / (ref.wall.Seconds() * float64(o.workers))
	if off := one.extra["obs.off_s"]; off > 0 {
		perPass["obs.overhead_x"] = one.extra["obs.on_s"] / off
	}
	perPass["trace.overhead_x"] = wall / n / one.wall.Seconds()
	perPass["runtime.gc_cpu_s"] = (after.gcCPU - before.gcCPU) / n
	perPass["runtime.gc_cycles"] = float64(after.gcCycles-before.gcCycles) / n
	perPass["runtime.alloc_objects"] = float64(after.allocObjects-before.allocObjects) / n

	data, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	prof, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	lt, err := reduceProfile(prof)
	if err != nil {
		return nil, err
	}
	for l, s := range lt.self {
		perPass[l+".self_s"] = s / n
	}
	perPass["scenario.expand_s"] = lt.expand / n
	perPass["trace.coverage"] = lt.coverage()

	for _, d := range perLayer {
		rep.add(d.name, d.unit, perPass[d.name], len(ps))
	}
	return rep, nil
}

// check compares every operation of every pass with want, the pinned
// fingerprints, or with the first pass when nothing is pinned. A failed
// or mismatching operation counts as failed.
func check(rep *report, label string, want []uint64, ps []*passResult) {
	if want == nil {
		for _, op := range ps[0].ops {
			want = append(want, op.fp)
		}
	}
	fail := func(msg string) {
		rep.failed++
		if len(rep.failures) < 5 {
			rep.failures = append(rep.failures, msg)
		}
	}
	for pi, p := range ps {
		for i, op := range p.ops {
			rep.attempted++
			switch {
			case op.err != "":
				fail(fmt.Sprintf("%s %d op %d: %s", label, pi, i, op.err))
			case len(want) != len(p.ops):
				fail(fmt.Sprintf("%s %d op %d: %d pinned fingerprints for %d operations", label, pi, i, len(want), len(p.ops)))
			case op.fp != want[i]:
				fail(fmt.Sprintf("%s %d op %d: fingerprint %016x, want %016x", label, pi, i, op.fp, want[i]))
			}
		}
	}
}

// runCanary runs one pass of the workload's canary, its small size at
// canarySeed, and checks it against its pins. Runs at unpinned seeds can
// only check that passes repeat; the canary checks every run's program
// against pinned outputs.
func runCanary(rep *report, w *workload, o runOpts) error {
	want, ok := o.pins.lookup(w, canaryKey)
	if !ok {
		return fmt.Errorf("%s: no pinned canary in %s (run -pin)", w.name, pinsFile)
	}
	run, err := w.setup(canarySeed, w.canary, o.env)
	if err != nil {
		return fmt.Errorf("%s canary set-up: %w", w.name, err)
	}
	check(rep, "canary pass", want, []*passResult{run(&passCtx{workers: o.workers})})
	return nil
}

// runtimeStats are the runtime/metrics counters the benchmark reads.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	st := runtimeStats{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2)}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = s[3].Value.Float64()
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func minimum(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the q-quantile of xs (nearest rank), or false when
// fewer than ten samples lie beyond it: a tail estimate needs at least
// ten samples in the tail.
func percentile(xs []float64, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < 10-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[i], true
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4, 1-based, interpolated and clamped.
		pos := float64(j) * float64(n+1) / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		if k < 1 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), median(s), at(3)
}
