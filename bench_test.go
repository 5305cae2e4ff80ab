package sda_test

// Benchmark harness: one benchmark per table/figure of the paper (the
// experiment that regenerates it, at reduced fidelity so `go test -bench`
// stays tractable) plus micro-benchmarks of the simulation kernel and the
// strategy implementations. Regenerate the full-fidelity numbers with
// cmd/sdaexp.

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"testing"

	sda "repro"
	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/serve"
	"repro/internal/obs/tracetree"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/scenario"
	isda "repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// benchOptions is the fidelity used by the per-figure benchmarks.
func benchOptions(seed uint64) exp.Options {
	return exp.Options{Duration: 2000, Warmup: 200, Replications: 1, Seed: seed}
}

// benchExperiment runs one experiment per iteration with a fresh seed.
func benchExperiment(b *testing.B, run func(exp.Options) (*exp.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := run(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if tbl.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5UD regenerates Figure 5 (UD baseline across load).
func BenchmarkFig5UD(b *testing.B) { benchExperiment(b, exp.Fig5) }

// BenchmarkFig6DIV regenerates Figure 6 (UD vs DIV-1 vs DIV-2).
func BenchmarkFig6DIV(b *testing.B) { benchExperiment(b, exp.Fig6) }

// BenchmarkFig7GF regenerates Figure 7 (UD vs DIV-1 vs GF).
func BenchmarkFig7GF(b *testing.B) { benchExperiment(b, exp.Fig7) }

// BenchmarkFig9ChooseX regenerates Figure 9 (MD vs x for n = 2, 4, 6).
func BenchmarkFig9ChooseX(b *testing.B) { benchExperiment(b, exp.Fig9) }

// BenchmarkFig10FracLocalDIV regenerates Figure 10(a) (DIV-1 vs frac_local).
func BenchmarkFig10FracLocalDIV(b *testing.B) { benchExperiment(b, exp.Fig10a) }

// BenchmarkFig10FracLocalGF regenerates Figure 10(b) (GF vs frac_local).
func BenchmarkFig10FracLocalGF(b *testing.B) { benchExperiment(b, exp.Fig10b) }

// BenchmarkFig11Abort regenerates Figure 11 (process-manager abortion).
func BenchmarkFig11Abort(b *testing.B) { benchExperiment(b, exp.Fig11) }

// BenchmarkLocalAbort regenerates the Section 7.3 local-abortion ablation.
func BenchmarkLocalAbort(b *testing.B) { benchExperiment(b, exp.LocalAbort) }

// BenchmarkFig12Classes regenerates Figure 12 (non-homogeneous classes).
func BenchmarkFig12Classes(b *testing.B) { benchExperiment(b, exp.Fig12) }

// BenchmarkFig15Combined regenerates Figure 15 (SSP x PSP on Figure 14's
// task graph, the Table 2 combinations).
func BenchmarkFig15Combined(b *testing.B) { benchExperiment(b, exp.Fig15) }

// BenchmarkSSPStrategies regenerates the serial-strategy ablation.
func BenchmarkSSPStrategies(b *testing.B) { benchExperiment(b, exp.SerialStrategies) }

// BenchmarkPexError regenerates the EQF estimation-error ablation.
func BenchmarkPexError(b *testing.B) { benchExperiment(b, exp.PexError) }

// --- simulation throughput ------------------------------------------------

// BenchmarkSimulationBaseline measures end-to-end simulator throughput on
// the Table 1 baseline; the metric of interest is events/op vs ns/op.
func BenchmarkSimulationBaseline(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.Default()
		cfg.Duration = 5000
		cfg.Warmup = 0
		cfg.Replications = 1
		cfg.Seed = uint64(i + 1)
		rep, err := sim.RunOne(cfg, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchSimulationObs measures end-to-end simulator throughput with the
// telemetry layer configured as given; the Off/On pair quantifies the
// observability overhead (docs/OBSERVABILITY.md records the numbers).
func benchSimulationObs(b *testing.B, o obs.Options) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.Default()
		cfg.Duration = 5000
		cfg.Warmup = 0
		cfg.Replications = 1
		cfg.Seed = uint64(i + 1)
		cfg.Obs = o
		rep, err := sim.RunOne(cfg, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimulationObsOff guards the disabled-telemetry path: it must
// match BenchmarkSimulationBaseline (zero telemetry overhead when off).
func BenchmarkSimulationObsOff(b *testing.B) {
	benchSimulationObs(b, obs.Options{})
}

// BenchmarkSimulationObsOn measures the full telemetry layer: spans,
// counters, per-node gauges and the 50-unit sampler.
func BenchmarkSimulationObsOn(b *testing.B) {
	benchSimulationObs(b, obs.Options{Enabled: true})
}

// benchSimulationFlight measures end-to-end throughput with the kernel
// flight recorder detached or attached. Off must be alloc-identical to
// BenchmarkSimulationBaseline (a nil tap is two predictable branches on
// the hot path); On stays well inside the documented 2x observability
// budget — the recorder only bumps fixed-size counters and histograms.
func benchSimulationFlight(b *testing.B, on bool) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.Default()
		cfg.Duration = 5000
		cfg.Warmup = 0
		cfg.Replications = 1
		cfg.Seed = uint64(i + 1)
		cfg.Flight = on
		rep, err := sim.RunOne(cfg, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimulationFlightOff guards the detached-recorder path.
func BenchmarkSimulationFlightOff(b *testing.B) { benchSimulationFlight(b, false) }

// BenchmarkSimulationFlightOn runs with the flight recorder attached:
// every schedule/fire/cancel tick updates the event-mix, record-pool and
// calendar-depth statistics.
func BenchmarkSimulationFlightOn(b *testing.B) { benchSimulationFlight(b, true) }

// benchSimulationObsReps runs an 8-replication observed batch through
// sim.Run at the given worker count and equal retention budget. The
// Sequential/Parallel pair measures the speedup unlocked by sharded
// telemetry: observed replications used to be forced onto one worker,
// now they fan out and the shards merge deterministically.
func benchSimulationObsReps(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.Default()
		cfg.Duration = 5000
		cfg.Warmup = 0
		cfg.Replications = 8
		cfg.Workers = workers
		cfg.Seed = uint64(i + 1)
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: 1 << 14}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range res.Reps {
			events += rep.Events
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimulationObsOnSequential is the old forced-sequential
// observed path: 8 replications on one worker.
func BenchmarkSimulationObsOnSequential(b *testing.B) {
	benchSimulationObsReps(b, 1)
}

// BenchmarkSimulationObsOnParallel runs the same 8 observed
// replications on all cores; the merged output is bit-identical to the
// sequential run, so ns/op is the only thing that changes.
func BenchmarkSimulationObsOnParallel(b *testing.B) {
	benchSimulationObsReps(b, runtime.GOMAXPROCS(0))
}

// benchSimulationBlame measures telemetry-instrumented throughput with or
// without the live observability hub attached at the shipped -serve
// defaults (publish cadence serve.DefaultEvery, no HTTP listener). Each
// publish takes a span and edge tail snapshot of the shard; rendering
// and attribution wait for an HTTP read, and none comes here. The
// Off/On pair bounds the publish overhead within the documented <2x obs
// budget.
func benchSimulationBlame(b *testing.B, withHub bool) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.Default()
		cfg.Duration = 5000
		cfg.Warmup = 0
		cfg.Replications = 1
		cfg.Seed = uint64(i + 1)
		cfg.Obs = obs.Options{Enabled: true}
		if withHub {
			hub := serve.NewHub(0)
			cfg.OnReplication = func(sys *sim.System) {
				hub.Attach(sys.Telemetry(), obs.NewMerged(), serve.RunInfo{
					Label:   "bench",
					Horizon: float64(sys.Horizon()),
				}, serve.DefaultEvery)
			}
		}
		rep, err := sim.RunOne(cfg, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimulationBlameOff is the attribution baseline: telemetry on,
// no hub. It should match BenchmarkSimulationObsOn.
func BenchmarkSimulationBlameOff(b *testing.B) { benchSimulationBlame(b, false) }

// BenchmarkSimulationBlameOn attaches the live hub at the default
// publish cadence — a tail snapshot every serve.DefaultEvery sampler
// ticks.
func BenchmarkSimulationBlameOn(b *testing.B) { benchSimulationBlame(b, true) }

// --- telemetry export -------------------------------------------------------

// observedMerge runs the cell whose telemetry the export benchmarks
// render: Table 1, DIV-1, load 0.5, four observed replications — the
// observed-blame end-to-end workload at a tenth of its duration.
func observedMerge(b *testing.B) *obs.Merged {
	b.Helper()
	cfg := sim.Default()
	cfg.PSP = isda.MustDiv(1)
	cfg.Spec.Load = 0.5
	cfg.Duration = 5000
	cfg.Replications = 4
	cfg.Seed = 1
	cfg.Obs = obs.Options{Enabled: true}
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Obs
}

// observedRecords is the span and edge stream trace-tree assembly reads.
func observedRecords(b *testing.B) []obs.Record {
	b.Helper()
	snap := observedMerge(b).Snapshot()
	return append(append([]obs.Record(nil), snap.Spans...), snap.Edges...)
}

// observedShards runs the four replications of the observed-blame cell
// (Table 1, DIV-1, load 0.5, 50,000 time units) one by one and returns
// their finished telemetry, each holding a full 65,536-span ring.
func observedShards(b *testing.B) []*obs.Telemetry {
	b.Helper()
	cfg := sim.Default()
	cfg.PSP = isda.MustDiv(1)
	cfg.Spec.Load = 0.5
	cfg.Duration = 50000
	cfg.Seed = 1
	cfg.Obs = obs.Options{Enabled: true}
	tels := make([]*obs.Telemetry, 4)
	for rep := range tels {
		sys, err := sim.NewSystem(cfg, sim.RepSeed(cfg.Seed, rep))
		if err != nil {
			b.Fatal(err)
		}
		sys.Telemetry().SetReplication(rep)
		if err := sys.Start(); err != nil {
			b.Fatal(err)
		}
		sys.Finish(sys.Horizon())
		if n := sys.Telemetry().Snapshot(1).Retained; n != 1<<16 {
			b.Fatalf("replication %d retains %d spans, want a full 65536-span ring", rep, n)
		}
		tels[rep] = sys.Telemetry()
	}
	return tels
}

// BenchmarkObsMerge measures the cross-replication merge: folding four
// full 65,536-span shards, each handed over with Telemetry.MergeInto
// (sim.Run's path), and taking one Snapshot of the result. MergeInto
// hands a telemetry's logs over once, so each op folds clones of the
// shards, made outside the timer.
func BenchmarkObsMerge(b *testing.B) {
	tels := observedShards(b)
	b.Run("handoff", func(b *testing.B) {
		b.ReportAllocs()
		shards := make([]*obs.Telemetry, len(tels))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for r, tel := range tels {
				shards[r] = tel.Clone()
			}
			b.StartTimer()
			m := obs.NewMerged()
			for _, tel := range shards {
				if err := tel.MergeInto(m); err != nil {
					b.Fatal(err)
				}
			}
			if s := m.Snapshot(); len(s.Spans) != 1<<16 {
				b.Fatalf("merged snapshot holds %d spans, want the 65536 budget", len(s.Spans))
			}
		}
	})
}

// BenchmarkObsSpanClose measures the span layer alone at steady state:
// per op, a subtask span released (RecordRelease) and closed
// (RecordSubtask) and a local span recorded at its resolution
// (RecordLocal), on a span ring already full, so every push evicts the
// oldest span into the slot it reuses. It allocates nothing.
func BenchmarkObsSpanClose(b *testing.B) {
	const budget = 1 << 12
	tel := obs.New(obs.Options{Enabled: true, MaxSpans: budget})
	sub := task.MustSimple("", 1, 2)
	root := task.MustParallel("", sub)
	sub.VirtualDeadline, sub.Finish = 8, 5
	local := task.MustSimple("", 0, 3)
	local.RealDeadline, local.VirtualDeadline, local.Finish = 6, 6, 4
	op := func() {
		tel.RecordRelease(sub, root, 8)
		tel.RecordSubtask(sub, false)
		tel.RecordLocal(local, false)
	}
	for i := 0; i < budget; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkObsMergedExport measures Merged.ExportDir of a 4-replication
// observed run: one snapshot of the fold, the span, edge and exemplar
// JSONL, the Prometheus exposition, the dashboard and the summary.
func BenchmarkObsMergedExport(b *testing.B) {
	m := observedMerge(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ExportDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracetreeBuild measures assembling the trace forest of a
// 4-replication observed run from its spans and causal edges.
func BenchmarkTracetreeBuild(b *testing.B) {
	recs := observedRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := tracetree.Build(recs); len(f.Trees) == 0 {
			b.Fatal("no trace trees")
		}
	}
}

// BenchmarkTracetreeWrite measures rendering that forest: the tree JSONL
// and the Chrome trace-event document, into io.Discard.
func BenchmarkTracetreeWrite(b *testing.B) {
	f := tracetree.Build(observedRecords(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteTrees(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := f.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttribAnalyze measures miss-cause attribution over the
// 4-replication observed fold: the span log merged with the exemplars
// (SpansForAnalysis, built once outside the timer) analyzed per op.
func BenchmarkAttribAnalyze(b *testing.B) {
	spans := observedMerge(b).Snapshot().SpansForAnalysis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rpt := attrib.Analyze(spans); rpt == nil {
			b.Fatal("no attribution report")
		}
	}
}

// BenchmarkSketchAdd measures one quantile-sketch insert, the per-span
// cost of the slack, lateness and latency sketches: values of both signs
// across six decades plus exact zeros, cycled from a fixed table.
func BenchmarkSketchAdd(b *testing.B) {
	s := rng.NewStream(1)
	vals := make([]float64, 4096)
	for i := range vals {
		switch v := s.Exp(1) * math.Pow(10, float64(i%6)-3); i % 8 {
		case 0:
			vals[i] = 0
		case 1, 2, 3:
			vals[i] = -v
		default:
			vals[i] = v
		}
	}
	sk := obs.NewSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(vals[i&(len(vals)-1)])
	}
	if sk.Count() != uint64(b.N) {
		b.Fatalf("sketch counts %d values, want %d", sk.Count(), b.N)
	}
}

// BenchmarkSimulationHighLoad stresses the queues at load 0.9.
func BenchmarkSimulationHighLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.Default()
		cfg.Spec.Load = 0.9
		cfg.Duration = 3000
		cfg.Warmup = 0
		cfg.Replications = 1
		if _, err := sim.RunOne(cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel micro-benchmarks ----------------------------------------------

// BenchmarkEngineEventChurn measures raw event throughput of the DES
// kernel: schedule-and-fire cycles through a 1k-event calendar.
func BenchmarkEngineEventChurn(b *testing.B) {
	b.ReportAllocs()
	eng := des.New()
	const depth = 1000
	var tick func()
	remaining := b.N
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		if _, err := eng.After(1, tick); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < depth; i++ {
		if _, err := eng.After(simtime.Duration(i), tick); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineHold runs the classic hold model on the DES calendar:
// each op fires the earliest event, which schedules one more after an
// exponential delay, so the calendar stays at its depth. The delays come
// from a fixed table, so child comparisons are as unpredictable as a
// model's; the depths are those of Table 1 (12), dag-abort (32) and the
// 5k-node fleet (9000). In the mix row a fired event schedules 0, 1 or 2
// more, as the Table 1 system's completions and arrivals do; the counts
// come in pairs (0, 2), (2, 0) or (1, 1) from a fixed table, so the
// calendar holds 11 to 13 events. Every row must report 0 allocs/op.
func BenchmarkEngineHold(b *testing.B) {
	var delays [1024]simtime.Duration
	s := rng.NewStream(1)
	for i := range delays {
		delays[i] = simtime.Duration(s.Exp(1))
	}
	var fanout [1024]int
	for i := 0; i < len(fanout); i += 2 {
		switch s.IntN(3) {
		case 0:
			fanout[i+1] = 2
		case 1:
			fanout[i] = 2
		default:
			fanout[i], fanout[i+1] = 1, 1
		}
	}
	for _, depth := range []int{12, 32, 9000} {
		b.Run("depth="+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			eng := des.New()
			k := 0
			var hold func(any)
			hold = func(any) {
				if _, err := eng.AfterCall(delays[k%len(delays)], hold, nil); err != nil {
					b.Fatal(err)
				}
				k++
			}
			for i := 0; i < depth; i++ {
				hold(nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
	b.Run("mix", func(b *testing.B) {
		b.ReportAllocs()
		eng := des.New()
		k, f := 0, 0
		var hold func(any)
		schedule := func() {
			if _, err := eng.AfterCall(delays[k%len(delays)], hold, nil); err != nil {
				b.Fatal(err)
			}
			k++
		}
		hold = func(any) {
			for n := fanout[f%len(fanout)]; n > 0; n-- {
				schedule()
			}
			f++
		}
		for i := 0; i < 12; i++ {
			schedule()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !eng.Step() {
				b.Fatal("calendar drained")
			}
		}
	})
}

// benchNodeQueueChurn measures the node waiting queue in isolation: one
// remove + recycle + acquire + submit cycle against a 256-deep heap, with
// the server parked on a long-running item so nothing dequeues. The
// steady state must report 0 allocs/op — the cycle runs entirely on the
// item pool and the inline heap.
func benchNodeQueueChurn(b *testing.B, p node.Policy) {
	b.ReportAllocs()
	eng := des.New()
	n := node.New(0, eng, node.WithPolicy(p))

	blocker, err := task.NewSimple("blocker", 0, simtime.Duration(1e18))
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Submit(node.NewItem(blocker)); err != nil {
		b.Fatal(err)
	}

	// Twice as many tasks as the queue window, so a task is never handed
	// to a new item while a previous incarnation still queues it.
	const window = 256
	tasks := make([]*task.Task, 2*window)
	for i := range tasks {
		tk, err := task.NewSimple("", 0, simtime.Duration(1+i%7))
		if err != nil {
			b.Fatal(err)
		}
		tk.VirtualDeadline = simtime.Time((int64(i) * 2654435761) % 4096)
		tasks[i] = tk
	}
	refs := make([]node.ItemRef, window)
	for i := 0; i < window; i++ {
		it := n.AcquireItem(tasks[i])
		if err := n.Submit(it); err != nil {
			b.Fatal(err)
		}
		refs[i] = it.Ref()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// gcd(31, window) = 1, so the victim slot sweeps the whole window
		// and removals hit arbitrary heap positions.
		j := (i*31 + 17) % window
		if it := refs[j].Item(); it != nil {
			n.Remove(it)
			n.RecycleItem(it)
		}
		it := n.AcquireItem(tasks[(window+i)%len(tasks)])
		if err := n.Submit(it); err != nil {
			b.Fatal(err)
		}
		refs[j] = it.Ref()
	}
}

// BenchmarkNodeQueueChurn tracks the inline heap under EDF (the paper's
// policy) and LLF (whose laxity key shifts as remaining demand differs).
func BenchmarkNodeQueueChurn(b *testing.B) {
	b.Run("EDF", func(b *testing.B) { benchNodeQueueChurn(b, node.EDF{}) })
	b.Run("LLF", func(b *testing.B) { benchNodeQueueChurn(b, node.LLF{}) })
}

// BenchmarkBurstArrival measures the batch scheduling path: one
// des.ScheduleBatch of 512 events (the bulk-heapify regime) followed by a
// full drain, as when a workload driver or trace replay arms a burst of
// arrivals at once.
func BenchmarkBurstArrival(b *testing.B) {
	b.ReportAllocs()
	eng := des.New()
	const burst = 512
	batch := make([]des.BatchEntry, burst)
	nop := func(any) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := eng.Now()
		for k := range batch {
			batch[k] = des.BatchEntry{
				At:   base.Add(simtime.Duration(1 + (int64(k)*2654435761)%1024)),
				Call: nop,
			}
		}
		if err := eng.ScheduleBatch(batch); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	b.ReportMetric(burst, "events/op")
}

// BenchmarkChecker measures the always-on invariant checker at fleet
// scale: one enqueue/start/finish cycle per op, round-robin over 5000
// nodes that each keep one later-deadline item waiting, so every start
// also runs the queue-policy scan. Every item is submitted once at
// setup, which assigns the slot the checker keys it by. The steady state
// must report 0 allocs/op.
func BenchmarkChecker(b *testing.B) {
	b.ReportAllocs()
	const fleet = 5000
	eng := des.New()
	chk := scenario.NewChecker(false)
	nodes := make([]*node.Node, fleet)
	cycle := make([][2]*node.Item, fleet)
	mint := func(n *node.Node, vdl simtime.Time) *node.Item {
		tk, err := task.NewSimple("", n.ID(), 1)
		if err != nil {
			b.Fatal(err)
		}
		tk.VirtualDeadline = vdl
		it := n.AcquireItem(tk)
		if err := n.Submit(it); err != nil {
			b.Fatal(err)
		}
		return it
	}
	for k := range nodes {
		nodes[k] = node.New(k, eng)
	}
	chk.Bind(nodes)
	for k, n := range nodes {
		resident := mint(n, 1e18)
		cycle[k] = [2]*node.Item{mint(n, 10), mint(n, 20)}
		chk.OnEnqueue(n, resident, 0)
	}
	at := simtime.Time(0)
	step := func(i int) {
		k := i % fleet
		n, it := nodes[k], cycle[k][(i/fleet)%2]
		chk.OnEnqueue(n, it, at)
		chk.OnStart(n, it, at)
		chk.OnFinish(n, it, at)
		at++
	}
	for i := 0; i < 2*fleet; i++ { // warm up: every slot and list grown
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	if v := chk.Violations(); len(v) != 0 {
		b.Fatalf("steady cycle flagged: %v", v[0])
	}
}

// BenchmarkRNGChoose measures one placement draw at fleet scale: n=4
// distinct nodes out of 5000, which still consumes 5000 generator draws.
// The steady state must report 0 allocs/op.
func BenchmarkRNGChoose(b *testing.B) {
	b.ReportAllocs()
	s := rng.NewStream(1)
	for i := 0; i < b.N; i++ {
		_ = s.Choose(5000, 4)
	}
}

// streamSink keeps BenchmarkRNGNewStream's streams escaping, as a
// driver's do.
var streamSink *rng.Stream

// BenchmarkRNGNewStream measures creating one stream, which a workload
// driver does once per node: exactly 1 alloc/op. Seeding the generator
// state is deferred until the stream first needs it, so this allocates
// only the stream's small header.
func BenchmarkRNGNewStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamSink = rng.NewStream(uint64(i))
	}
}

// BenchmarkRNGExp measures one exponential draw, the interarrival and
// service-time primitive: 0 allocs/op.
func BenchmarkRNGExp(b *testing.B) {
	b.ReportAllocs()
	s := rng.NewStream(1)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += s.Exp(1)
	}
	if sum < 0 {
		b.Fatal("negative exponential draw")
	}
}

// BenchmarkRNGFleetStreams measures the per-node streams of one fleet
// replication: 5000 streams split from one seed and 30 exponential draws
// on each, the nodes visited in a scattered order as interleaved arrivals
// visit them. Each stream is one allocation.
func BenchmarkRNGFleetStreams(b *testing.B) {
	b.ReportAllocs()
	const nodes, draws = 5000, 30
	const stride = 2399 // coprime to nodes, so each round visits every node once
	streams := make([]*rng.Stream, nodes)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sp := rng.NewSplitter(uint64(i))
		for j := range streams {
			streams[j] = sp.Stream()
		}
		for d := 0; d < draws; d++ {
			for j := 0; j < nodes; j++ {
				sum += streams[j*stride%nodes].Exp(1)
			}
		}
	}
	if sum < 0 {
		b.Fatal("negative exponential draw")
	}
}

// --- Task construction -------------------------------------------------------

// BenchmarkTaskBuild measures drawing one task as the workload driver
// does, from a task.Slab: a Table 1 local task, a parallel-4 tree, the
// Section 8 serial5-fan4 pipeline, and the fork-join DAG of the dag-abort
// workload. Execution times, placement, pex stamping and the deadline are
// included. Those four never hand a task back; the recycled-local,
// recycled-serial5-fan4, recycled-forkjoin-dag and recycled-cond-dag
// cases reclaim each task or DAG after drawing it, as the process manager
// does after its final outcome, and allocate nothing in steady state.
func BenchmarkTaskBuild(b *testing.B) {
	trees := []workload.Factory{
		workload.FixedParallel{N: 4},
		workload.SerialParallel{Stages: 5, Fanout: 4},
	}
	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		spec := sim.Default().Spec
		s, slab := rng.NewStream(1), new(task.Slab)
		for i := 0; i < b.N; i++ {
			spec.NewLocal(s, slab, i%spec.K, 0)
		}
	})
	for _, f := range trees {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			spec := workload.Baseline(f)
			s, slab := rng.NewStream(1), new(task.Slab)
			for i := 0; i < b.N; i++ {
				if _, err := spec.NewGlobal(s, slab, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("recycled-local", func(b *testing.B) {
		b.ReportAllocs()
		spec := sim.Default().Spec
		s, slab := rng.NewStream(1), new(task.Slab)
		for i := 0; i < b.N; i++ {
			slab.Reclaim(spec.NewLocal(s, slab, i%spec.K, 0))
		}
	})
	b.Run("recycled-serial5-fan4", func(b *testing.B) {
		b.ReportAllocs()
		spec := workload.Baseline(trees[1])
		s, slab := rng.NewStream(1), new(task.Slab)
		for i := 0; i < b.N; i++ {
			root, err := spec.NewGlobal(s, slab, 0)
			if err != nil {
				b.Fatal(err)
			}
			slab.Reclaim(root)
		}
	})
	b.Run("forkjoin-dag", func(b *testing.B) {
		b.ReportAllocs()
		spec := dagBenchSpec()
		s, slab := rng.NewStream(1), new(task.Slab)
		for i := 0; i < b.N; i++ {
			if _, err := spec.NewGlobalDag(s, slab, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled-forkjoin-dag", func(b *testing.B) {
		b.ReportAllocs()
		spec := dagBenchSpec()
		s, slab := rng.NewStream(1), new(task.Slab)
		for i := 0; i < b.N; i++ {
			d, err := spec.NewGlobalDag(s, slab, 0)
			if err != nil {
				b.Fatal(err)
			}
			slab.ReclaimDag(d)
		}
	})
	b.Run("recycled-cond-dag", func(b *testing.B) {
		b.ReportAllocs()
		spec := workload.Baseline(nil)
		spec.DagFactory = workload.ConditionalDag{Stages: 5, Branches: 3, Width: 2}
		s, slab := rng.NewStream(1), new(task.Slab)
		for i := 0; i < b.N; i++ {
			d, err := spec.NewGlobalDag(s, slab, 0)
			if err != nil {
				b.Fatal(err)
			}
			slab.ReclaimDag(d)
		}
	})
}

// --- Global task trees -----------------------------------------------------

// BenchmarkSubmitGlobal measures the process manager's tree path, the twin
// of BenchmarkDagSubmit: SubmitGlobal of one Table 1 global task on an
// idle six-node manager (EQF, DIV-1, process-manager abort), drained to
// completion — releases, completions and the deadline timer. The trees
// are drawn in batches with the timer stopped, so only the manager is
// measured.
func BenchmarkSubmitGlobal(b *testing.B) {
	b.ReportAllocs()
	spec := sim.Default().Spec
	eng := des.New()
	nodes := make([]*node.Node, spec.K)
	for i := range nodes {
		nodes[i] = node.New(i, eng)
	}
	m := procmgr.New(eng, nodes, isda.EQF{}, isda.MustDiv(1), procmgr.WithPMAbort())
	s := rng.NewStream(1)
	const batch = 256
	trees := make([]*task.Task, batch)
	budget := make([]simtime.Duration, batch) // relative end-to-end deadline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % batch
		if j == 0 {
			b.StopTimer()
			for k := range trees {
				t, err := spec.NewGlobal(s, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				trees[k], budget[k] = t, t.RealDeadline.Sub(0)
			}
			b.StartTimer()
		}
		t := trees[j]
		t.RealDeadline = eng.Now().Add(budget[j])
		if err := m.SubmitGlobal(t); err != nil {
			b.Fatal(err)
		}
		eng.Run()
		trees[j] = nil
	}
}

// --- DAG global tasks -------------------------------------------------------

// dagBenchSpec is the DAG family of the end-to-end dag-abort workload:
// three-stage fork-join pipelines with fan-out 4 and stage-skipping edges
// at probability 0.3 (three in ten decompose into a cluster), on the
// Table 1 six-node system.
func dagBenchSpec() workload.Spec {
	s := workload.Baseline(nil)
	s.DagFactory = workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3}
	return s
}

// BenchmarkDagBuild measures drawing one global DAG task: the factory's
// vertices and edges, pex stamping and the critical-path deadline.
func BenchmarkDagBuild(b *testing.B) {
	b.ReportAllocs()
	spec := dagBenchSpec()
	s := rng.NewStream(1)
	for i := 0; i < b.N; i++ {
		if _, err := spec.NewGlobalDag(s, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDagSubmit measures the process manager's DAG path: SubmitDag
// of one DAG on an idle six-node manager (EQF, DIV-1, process-manager
// abort), drained to completion — decomposition, releases, cluster
// bookkeeping, completions and the deadline timer. The DAGs are drawn
// from the manager's slab in batches with the timer stopped, so only the
// manager is measured, and each goes back to the slab after its outcome,
// as in a simulation.
func BenchmarkDagSubmit(b *testing.B) {
	b.ReportAllocs()
	spec := dagBenchSpec()
	eng := des.New()
	nodes := make([]*node.Node, spec.K)
	for i := range nodes {
		nodes[i] = node.New(i, eng)
	}
	m := procmgr.New(eng, nodes, isda.EQF{}, isda.MustDiv(1), procmgr.WithPMAbort())
	s := rng.NewStream(1)
	const batch = 256
	dags := make([]*task.Dag, batch)
	budget := make([]simtime.Duration, batch) // relative end-to-end deadline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % batch
		if j == 0 {
			b.StopTimer()
			for k := range dags {
				d, err := spec.NewGlobalDag(s, m.Tasks(), 0)
				if err != nil {
					b.Fatal(err)
				}
				dags[k], budget[k] = d, d.Root().RealDeadline.Sub(0)
			}
			b.StartTimer()
		}
		d := dags[j]
		d.Root().RealDeadline = eng.Now().Add(budget[j])
		if err := m.SubmitDag(d); err != nil {
			b.Fatal(err)
		}
		eng.Run()
		dags[j] = nil
	}
}

// BenchmarkStrategyAssignment measures the per-subtask cost of each PSP
// strategy's deadline computation.
func BenchmarkStrategyAssignment(b *testing.B) {
	strategies := []isda.PSP{isda.UD{}, isda.MustDiv(1), isda.GF{}}
	for _, s := range strategies {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.AssignParallel(simtime.Time(i), simtime.Time(i+10), 4)
			}
		})
	}
}

// BenchmarkEQFAssignment measures the EQF serial decomposition over a
// five-stage pipeline.
func BenchmarkEQFAssignment(b *testing.B) {
	b.ReportAllocs()
	pexs := []simtime.Duration{1, 1, 1, 1, 1}
	eqf := isda.EQF{}
	for i := 0; i < b.N; i++ {
		_ = eqf.AssignSerial(simtime.Time(i), simtime.Time(i+25), pexs)
	}
}

// BenchmarkTaskParse measures the bracket-notation parser on the
// Figure 14 pipeline.
func BenchmarkTaskParse(b *testing.B) {
	b.ReportAllocs()
	const src = "[init@0:1 [a@1:1||b@2:1||c@3:1||d@4:1] mid@5:1 [e@1:1||f@2:1||g@3:1||h@4:1] fin@0:1]"
	for i := 0; i < b.N; i++ {
		if _, err := task.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan measures the offline recursive SDA algorithm on the
// Figure 14 pipeline.
func BenchmarkPlan(b *testing.B) {
	b.ReportAllocs()
	tree := task.MustParse("[init@0:1 [a@1:1||b@2:1||c@3:1||d@4:1] mid@5:1 [e@1:1||f@2:1||g@3:1||h@4:1] fin@0:1]")
	for i := 0; i < b.N; i++ {
		if err := sda.Plan(tree, 0, 25, sda.EQF(), sda.Div(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoliciesAblation regenerates the local-policy ablation.
func BenchmarkPoliciesAblation(b *testing.B) { benchExperiment(b, exp.Policies) }

// BenchmarkFIFOAblation regenerates the FIFO-vs-EDF ablation.
func BenchmarkFIFOAblation(b *testing.B) { benchExperiment(b, exp.FIFOAblation) }

// BenchmarkGFDeltaAblation regenerates the GF-encoding ablation.
func BenchmarkGFDeltaAblation(b *testing.B) { benchExperiment(b, exp.GFDelta) }

// BenchmarkDivNoFanoutAblation regenerates the flat-divisor ablation.
func BenchmarkDivNoFanoutAblation(b *testing.B) { benchExperiment(b, exp.DivNoFanout) }

// BenchmarkPreemptionAblation regenerates the preemption ablation.
func BenchmarkPreemptionAblation(b *testing.B) { benchExperiment(b, exp.Preemption) }

// BenchmarkServiceDistAblation regenerates the service-variability ablation.
func BenchmarkServiceDistAblation(b *testing.B) { benchExperiment(b, exp.ServiceDist) }

// BenchmarkNetworkPipeline regenerates the network-as-resource experiment.
func BenchmarkNetworkPipeline(b *testing.B) { benchExperiment(b, exp.Network) }

// BenchmarkScaleAblation regenerates the system-size sweep.
func BenchmarkScaleAblation(b *testing.B) { benchExperiment(b, exp.Scale) }
