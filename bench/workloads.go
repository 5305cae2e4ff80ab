package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/tracetree"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	wl "repro/internal/workload"
)

// params sizes a workload. The benchmark runs the sizes in workloads;
// tests pass smaller ones.
type params struct {
	duration simtime.Duration // measured simulated time per replication
	reps     int              // replications per cell, fleet runs per pass, or replications per observed round
	scale    int              // fleet shrink factor for Scenario.ApplyStressScale; 1 = the shipped fleet
}

// env locates a run's inputs and scratch space.
type env struct {
	root    string // repository root: the fleet scenario is read from its testdata
	scratch string // directory passes may write into
}

// A workload is one named benchmark input. setup loads and validates the
// inputs for one seed and returns the pass runner; it is what setup_s
// times.
type workload struct {
	name   string
	serial bool   // runs one replication at a time whatever the worker count
	params params // the benchmark's size
	canary params // a small size, pinned and run before every measured run
	setup  func(seed uint64, p params, e env) (runner, error)
}

// A runner executes one pass, the workload's fixed unit of work. Every
// pass of a run repeats the same inputs, so it must repeat the same
// outputs; the fingerprints check that.
type runner func(x *passCtx) *passResult

// passCtx says how a pass runs: the replication workers and, for traced
// runs only, the tracer (nil in timed runs, where it costs nothing).
type passCtx struct {
	workers int
	tr      *tracer
}

// op is one operation of a pass: a replication, a fleet run or an
// analysis round. fp fingerprints its output; err is non-empty when the
// operation failed before any fingerprint comparison.
type op struct {
	fp  uint64
	err string
}

// passResult is what one pass measured and produced.
type passResult struct {
	wall    time.Duration   // the whole pass
	simWall time.Duration   // the simulation calls whose events count
	reps    []time.Duration // host time per counted replication
	events  uint64          // model events of the counted replications
	alloc   uint64          // heap bytes allocated during the pass (set by the caller)
	mem     uint64          // peak runtime memory during the pass (timed runs)
	ref     time.Duration   // host reference timed right after the pass (timed runs)
	ops     []op

	// Model outcomes of the counted replications, for per-layer metrics.
	globals, subtasks int64
	qlenSum, utilSum  float64
	counted           int

	extra map[string]float64 // workload-specific quantities; they add across passes
}

func newPass(ops, reps int) *passResult {
	return &passResult{ops: make([]op, ops), reps: make([]time.Duration, reps), extra: map[string]float64{}}
}

// count adds one counted replication's outcome.
func (p *passResult) count(r sim.RepResult) {
	p.events += r.Events
	p.globals += r.Globals
	p.subtasks += r.Subtasks
	p.qlenSum += r.MeanQueueLen
	p.utilSum += r.Utilization
	p.counted++
}

// Workload parameters shared by the definitions below.
var (
	fig7Loads = []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1} // heaviest first: short pass tails
	dagLoads  = []float64{0.85, 0.65, 0.45}
	psps      = []sda.PSP{sda.UD{}, sda.MustDiv(1), sda.GF{}}
)

// zoneScenario is the shipped 5k-node stress scenario, relative to the
// repository root.
const zoneScenario = "testdata/scenarios/stress_zone_5k.json"

// The workloads, in BENCHMARK.json order. Each stresses different layers,
// so that a change to one layer has a workload that exercises it and one
// that predicts no change.
var workloads = []*workload{
	// The paper's main sweep (the Figure 7 grid): a shallow calendar and
	// every core busy with replications; des, node and the procmgr tree
	// path do the work.
	{name: "fig7-sweep", params: params{duration: 50000, reps: 1}, canary: params{duration: 400, reps: 1},
		setup: sweepSetup(fig7Base, fig7Loads)},
	// Fork-join DAGs under process-manager abort: DAG decomposition, abort
	// cascades and calendar cancels, none of which fig7-sweep runs.
	{name: "dag-abort", params: params{duration: 15000, reps: 4}, canary: params{duration: 400, reps: 1},
		setup: sweepSetup(dagBase, dagLoads)},
	// The shipped 5k-node fleet under chaos, one run at a time: a deep
	// calendar, fleet expansion, RNG placement and stream seeding, the
	// invariant checker and the oracle. The other cores stay idle by design.
	{name: "fleet-zone-5k", serial: true, params: params{reps: 4, scale: 1}, canary: params{reps: 2, scale: 50},
		setup: fleetSetup},
	// The only workload where telemetry, blame attribution and trace trees
	// do work; the other three predict no change for them.
	{name: "observed-blame", params: params{duration: 50000, reps: 4}, canary: params{duration: 1000, reps: 2},
		setup: blameSetup},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// fig7Base is the Table 1 baseline: K=6, n=4 parallel subtasks, EDF, SSP
// UD, no abort.
func fig7Base() sim.Config { return sim.Default() }

// dagBase runs fork-join DAG global tasks with EQF serial budgets and
// process-manager abort.
func dagBase() sim.Config {
	cfg := sim.Default()
	cfg.Spec.Factory = nil
	cfg.Spec.DagFactory = wl.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3}
	cfg.SSP = sda.EQF{}
	cfg.Abort = sim.AbortProcessManager
	return cfg
}

// sweepSetup builds the PSP x load grid as one job per replication,
// heaviest load first. Replication r of every cell shares a seed, as the
// cells of an exp sweep do.
func sweepSetup(base func() sim.Config, loads []float64) func(uint64, params, env) (runner, error) {
	return func(seed uint64, p params, _ env) (runner, error) {
		var jobs []sim.Config
		for _, load := range loads {
			for _, psp := range psps {
				for r := 0; r < p.reps; r++ {
					cfg := base()
					cfg.Spec.Load = load
					cfg.PSP = psp
					cfg.Duration = p.duration
					cfg.Replications = 1
					cfg.Seed = sim.RepSeed(seed, r)
					if err := cfg.Validate(); err != nil {
						return nil, fmt.Errorf("%s at load %v: %w", psp.Name(), load, err)
					}
					jobs = append(jobs, cfg)
				}
			}
		}
		return func(x *passCtx) *passResult { return runSweep(x, jobs) }, nil
	}
}

// runSweep runs the jobs as a closed batch: each worker takes the next
// replication as soon as it frees up.
func runSweep(x *passCtx, jobs []sim.Config) *passResult {
	res := newPass(len(jobs), len(jobs))
	reps := make([]sim.Result, len(jobs))
	start := time.Now()
	_ = par.Map(x.workers, len(jobs), func(i int) error {
		cfg := jobs[i]
		id := x.tr.attach(&cfg, "sim.Run", i)
		t := time.Now()
		r, err := sim.Run(cfg)
		res.reps[i] = time.Since(t)
		x.tr.done(id, r.Flight)
		reps[i] = r
		res.ops[i] = repOp(r, err)
		return nil
	})
	res.wall = time.Since(start)
	res.simWall = res.wall
	for i, r := range reps {
		if res.ops[i].err == "" {
			res.count(r.Reps[0])
		}
	}
	return res
}

// repOp checks and fingerprints the single replication of r.
func repOp(r sim.Result, err error) op {
	if err != nil {
		return op{err: err.Error()}
	}
	if len(r.Reps) != 1 {
		return op{err: fmt.Sprintf("got %d replications, want 1", len(r.Reps))}
	}
	return checkRep(r.Reps[0])
}

// checkRep rejects replication results no correct run can produce, then
// fingerprints the result.
func checkRep(r sim.RepResult) op {
	fp := fingerprintRep(r)
	if r.Events == 0 || r.Locals+r.Globals == 0 {
		return op{fp: fp, err: fmt.Sprintf("empty replication: %d events, %d locals, %d globals", r.Events, r.Locals, r.Globals)}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"md_local", r.MDLocal}, {"md_global", r.MDGlobal}, {"md_subtask", r.MDSubtask},
		{"missed_work", r.MissedWork}, {"utilization", r.Utilization},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return op{fp: fp, err: fmt.Sprintf("%s = %v outside [0, 1]", f.name, f.v)}
		}
	}
	return op{fp: fp}
}

// fingerprintRep hashes every RepResult field at fixed precision, so a
// change that only reorders floating-point work keeps the fingerprint.
func fingerprintRep(r sim.RepResult) uint64 {
	var b strings.Builder
	fmt.Fprintf(&b, "%.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g %d %d %d %d",
		r.MDLocal, r.MDSubtask, r.MDGlobal, r.MissedWork, r.Utilization,
		r.RespLocalMean, r.RespGlobalMean, r.RespLocalP95, r.RespGlobalP95, r.MeanQueueLen,
		r.Locals, r.Globals, r.Subtasks, r.Events)
	classes := make([]int, 0, len(r.MDGlobalBy))
	for n := range r.MDGlobalBy {
		classes = append(classes, n)
	}
	sort.Ints(classes)
	for _, n := range classes {
		fmt.Fprintf(&b, " %d:%.9g", n, r.MDGlobalBy[n])
	}
	return fingerprint(b.String())
}

func fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, s := range parts {
		_, _ = io.WriteString(h, s) // hash writes cannot fail
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// fleetSetup loads the shipped zone-failure scenario once; each run of a
// pass gets its own scenario seed derived from the benchmark seed.
func fleetSetup(seed uint64, p params, e env) (runner, error) {
	base, err := scenario.Load(filepath.Join(e.root, zoneScenario))
	if err != nil {
		return nil, err
	}
	if !base.IsStress() {
		return nil, fmt.Errorf("%s is not a stress scenario", zoneScenario)
	}
	base.Stress.Replications = 1
	base.ApplyStressScale(p.scale)
	runs := make([]*scenario.Scenario, p.reps)
	for i := range runs {
		s := *base
		s.Seed = sim.RepSeed(seed, i)
		runs[i] = &s
	}
	return func(x *passCtx) *passResult { return runFleet(x, runs) }, nil
}

// runFleet runs the fleet scenarios one after another on one worker: a
// single replication per run leaves the other cores idle by design.
func runFleet(x *passCtx, runs []*scenario.Scenario) *passResult {
	res := newPass(len(runs), len(runs))
	start := time.Now()
	for i, s := range runs {
		id := x.tr.begin("scenario.RunStress", i)
		t := time.Now()
		var (
			out *scenario.Outcome
			fl  *des.Flight
			err error
		)
		if x.tr != nil {
			out, fl, err = scenario.RunStressFlight(s, 1)
		} else {
			out, err = scenario.RunStress(s, 1)
		}
		res.reps[i] = time.Since(t)
		x.tr.done(id, fl)
		if err != nil {
			res.ops[i] = op{err: err.Error()}
			continue
		}
		res.ops[i] = fleetOp(out, res.extra)
		if res.ops[i].err == "" {
			for _, r := range out.Reps {
				res.count(r)
			}
		}
	}
	res.wall = time.Since(start)
	res.simWall = res.wall
	return res
}

// fleetOp fails a fleet run on any invariant or oracle violation. Assert
// bands were calibrated for the shipped seed only, so misses at other
// seeds are counted, not failed.
func fleetOp(out *scenario.Outcome, extra map[string]float64) op {
	o := op{fp: fingerprint(out.Summary())}
	extra["scenario.timeline_events"] += float64(out.Stress.Timeline)
	extra["analysis.oracle_checks"] += float64(out.OracleChecks)
	var violations []string
	for _, f := range out.Failures {
		if strings.Contains(f, "invariant: ") || strings.Contains(f, "oracle: ") {
			violations = append(violations, f)
		} else {
			extra["scenario.band_misses"]++
		}
	}
	if len(violations) > 0 {
		o.err = fmt.Sprintf("%d violations, first: %s", len(violations), violations[0])
	}
	return o
}

// blameSetup builds the observed baseline cell (Table 1, DIV-1, load
// 0.5) and the directory its bundle is written to.
func blameSetup(seed uint64, p params, e env) (runner, error) {
	cfg := sim.Default()
	cfg.PSP = sda.MustDiv(1)
	cfg.Spec.Load = 0.5
	cfg.Duration = p.duration
	cfg.Replications = p.reps
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir := filepath.Join(e.scratch, "observed-blame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(x *passCtx) *passResult { return runBlame(x, cfg, dir) }, nil
}

// runBlame runs one observed round: the cell with telemetry off, the same
// seeds with telemetry on, then the bundle sdaobs writes (export, blame
// report, trace trees). Telemetry must not change any replication.
func runBlame(x *passCtx, cfg sim.Config, dir string) *passResult {
	n := cfg.Replications
	res := newPass(2*n+1, n)
	start := time.Now()

	off, _, offWall, offErr := observedRun(x, cfg, "sim.Run obs=off")
	cfg.Obs = obs.Options{Enabled: true}
	on, onTimes, onWall, onErr := observedRun(x, cfg, "sim.Run obs=on")
	res.extra["obs.off_s"] = offWall.Seconds()
	res.extra["obs.on_s"] = onWall.Seconds()
	res.simWall = onWall
	copy(res.reps, onTimes)
	for r := 0; r < n; r++ {
		res.ops[r] = resultOp(off, offErr, r)
		res.ops[n+r] = resultOp(on, onErr, r)
		if o := &res.ops[n+r]; o.err == "" && res.ops[r].err == "" && o.fp != res.ops[r].fp {
			o.err = fmt.Sprintf("replication %d differs with telemetry on", r)
		}
		if res.ops[n+r].err == "" {
			res.count(on.Reps[r])
		}
	}
	if onErr != nil {
		res.ops[2*n] = op{err: "no telemetry to analyse: " + onErr.Error()}
	} else {
		t := time.Now()
		res.ops[2*n] = bundle(x, on.Obs, dir, res.extra)
		res.extra["analysis_s"] = time.Since(t).Seconds()
	}
	res.wall = time.Since(start)
	return res
}

// observedRun runs a multi-replication cell, timing each replication
// from the concurrency-safe replication hooks.
func observedRun(x *passCtx, cfg sim.Config, name string) (sim.Result, []time.Duration, time.Duration, error) {
	starts := make([]time.Time, cfg.Replications)
	times := make([]time.Duration, cfg.Replications)
	cfg.Workers = x.workers
	cfg.OnReplication = func(s *sim.System) { starts[s.Replication] = time.Now() }
	cfg.OnReplicationDone = func(s *sim.System) { times[s.Replication] = time.Since(starts[s.Replication]) }
	id := x.tr.attach(&cfg, name, -1)
	t := time.Now()
	r, err := sim.Run(cfg)
	wall := time.Since(t)
	x.tr.done(id, r.Flight)
	return r, times, wall, err
}

func resultOp(r sim.Result, err error, rep int) op {
	if err != nil {
		return op{err: err.Error()}
	}
	return checkRep(r.Reps[rep])
}

// bundle writes what `sdaobs -reps N` writes and fingerprints blame.json
// and tracetree.jsonl, the two outputs downstream tools read.
func bundle(x *passCtx, m *obs.Merged, dir string, extra map[string]float64) op {
	fail := func(err error) op { return op{err: err.Error()} }
	if m == nil {
		return op{err: "telemetry enabled but no merged telemetry returned"}
	}
	t0 := time.Now()
	id := x.tr.begin("obs.Merged.ExportDir", -1)
	_, err := m.ExportDir(dir)
	x.tr.end(id)
	if err != nil {
		return fail(err)
	}
	snap := m.Snapshot()
	extra["obs.spans_total"] += float64(snap.TotalSpans)
	// Spans recorded but not exported: evicted from a shard's ring or
	// trimmed by the merge budget. Edges count only record-time drops;
	// the merge reports its edge trims together with span trims.
	extra["obs.spans_dropped"] += float64(snap.TotalSpans - uint64(len(snap.Spans)))
	extra["obs.edges_dropped"] += float64(counterSum(snap, "sda_edges_dropped_total"))

	t1 := time.Now()
	id = x.tr.begin("attrib.Analyze", -1)
	rpt := attrib.Analyze(snap.SpansForAnalysis())
	x.tr.end(id)
	blameMD := rpt.Markdown()
	blameJSON, err := rpt.JSON()
	if err != nil {
		return fail(err)
	}
	if len(blameMD) == 0 || len(blameJSON) == 0 {
		return op{err: "empty blame report"}
	}
	if err := writeFiles(dir, map[string][]byte{"blame.md": []byte(blameMD), "blame.json": blameJSON}); err != nil {
		return fail(err)
	}

	t2 := time.Now()
	id = x.tr.begin("tracetree.Build", -1)
	forest := tracetree.Build(append(append([]obs.Record(nil), snap.Spans...), snap.Edges...))
	x.tr.end(id)
	if len(forest.Trees) == 0 {
		return op{err: "no trace trees built"}
	}
	t3 := time.Now()
	var trees, chrome bytes.Buffer
	id = x.tr.begin("tracetree.WriteTrees", -1)
	err = forest.WriteTrees(&trees)
	x.tr.end(id)
	if err != nil {
		return fail(err)
	}
	id = x.tr.begin("tracetree.WriteChrome", -1)
	err = forest.WriteChrome(&chrome)
	x.tr.end(id)
	if err != nil {
		return fail(err)
	}
	if err := writeFiles(dir, map[string][]byte{"tracetree.jsonl": trees.Bytes(), "trace.chrome.json": chrome.Bytes()}); err != nil {
		return fail(err)
	}
	t4 := time.Now()

	extra["obs.export_s"] += t1.Sub(t0).Seconds()
	extra["attrib.analyze_s"] += t2.Sub(t1).Seconds()
	extra["tracetree.build_s"] += t3.Sub(t2).Seconds()
	extra["tracetree.write_s"] += t4.Sub(t3).Seconds()
	return op{fp: fingerprint(string(blameJSON), trees.String())}
}

func counterSum(s *obs.Snapshot, name string) uint64 {
	var n uint64
	for _, c := range s.Registry.Counters {
		if c.Name == name {
			n += c.V
		}
	}
	return n
}

func writeFiles(dir string, files map[string][]byte) error {
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}
