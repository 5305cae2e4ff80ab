// Package obs is the unified simulation telemetry layer: a metrics
// registry (counters, gauges, fixed-bucket histograms), task-lifecycle
// spans, and a ring-buffered time-series sampler, all clocked on
// simulated time.
//
// The layer exists to explain *why* a deadline-assignment strategy
// misses: queue buildup at bottleneck nodes, slack exhaustion across
// serial stages, preemption storms under GF. It threads through the
// whole stack via the hooks the simulator already exposes — it is a
// node.Observer for scheduling events and a procmgr.Listener for
// outcomes, deadline assignments, causal edges and DAG shapes — so
// enabling it changes no model behaviour:
//
//   - every timestamp is simulated time (wall clock never appears), so
//     exports are bit-identical across runs and machines;
//   - sampler ticks are read-only DES events, so the model's own event
//     order — and therefore the scenario golden trace hashes — is
//     unchanged whether telemetry is on or off;
//   - when disabled (the sim.Config zero value) nothing is constructed
//     and the DES hot path stays allocation-free, guarded by the
//     sdabench benchmark suite.
//
// Exports: JSONL spans (WriteSpans), Prometheus text exposition
// (WritePrometheus), CSV time series (WriteCSV) and an SVG queue-depth /
// slack dashboard (Dashboard). cmd/sdaobs and the -obs flags on
// sdasim/sdaexp/sdascen drive them from the command line.
package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Options configures the telemetry layer. The zero value is disabled;
// DefaultOptions returns an enabled configuration with the documented
// defaults.
type Options struct {
	// Enabled turns telemetry on. When false the simulator constructs
	// nothing — zero allocations, zero overhead.
	Enabled bool

	// SampleEvery is the sampler cadence in simulated time units
	// (default 50). The sampler stops at the run horizon.
	SampleEvery simtime.Duration

	// MaxSamples bounds the sampler ring buffers (default 4096). When a
	// run outlives the ring, the oldest samples are overwritten.
	MaxSamples int

	// MaxSpans bounds the span store (default 65536). The store is a
	// ring: once full, recording a new span evicts the oldest one, so
	// the latest spans are always retained and peak span memory is
	// O(MaxSpans) regardless of run length. Evictions are counted in
	// sda_spans_dropped_total.
	MaxSpans int

	// ExemplarK bounds the per-kind exemplar sets (default 8). For each
	// span kind the telemetry keeps the K latest-released and the K
	// worst-lateness closed spans independently of ring eviction, so
	// cause analysis has representative spans even when the ring has
	// wrapped many times.
	ExemplarK int

	// ExemplarSeed seeds the deterministic tie-break used by exemplar
	// selection (default 1). All shards of one run share the seed, so
	// the merged exemplar set is a pure function of the run.
	ExemplarSeed uint64
}

// DefaultOptions returns an enabled telemetry configuration.
func DefaultOptions() Options {
	return Options{Enabled: true}.normalized()
}

// normalized fills zero-valued fields with the documented defaults.
func (o Options) normalized() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 50
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 4096
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 1 << 16
	}
	if o.ExemplarK <= 0 {
		o.ExemplarK = 8
	}
	if o.ExemplarSeed == 0 {
		o.ExemplarSeed = 1
	}
	return o
}

// Telemetry is one run's telemetry state. Create with New, attach it as
// a node observer and process-manager listener (sim.Config.Obs does this
// wiring), Bind it to the engine and nodes, Start the sampler, and read
// the exports after the run. All methods run on the simulation
// goroutine; Telemetry is not safe for concurrent use.
type Telemetry struct {
	opts Options
	reg  *Registry
	eng  *des.Engine

	// Scheduling-event counters (node.Observer).
	enqueues, starts, finishes, aborts, preempts *Counter

	// Deadline-assignment counters (procmgr.Listener.RecordRelease).
	releases, resubmits *Counter

	// Outcome counters (procmgr.Recorder).
	doneLocal, doneGlobal, doneSubtask       *Counter
	missedLocal, missedGlobal, missedSubtask *Counter

	droppedSpans *Counter

	inflight float64 // global tasks released and not yet resolved

	slackHist    *Histogram // assigned slack at every release
	latenessHist *Histogram // lateness at span close (end - judging deadline)

	// Mergeable quantile sketches mirroring the series above plus span
	// duration; these survive the cross-replication merge losslessly
	// where the fixed-bucket histograms only survive bucket-wise.
	slackSk    *SketchInstrument
	latenessSk *SketchInstrument
	latencySk  *SketchInstrument

	// The span store is a ring of at most MaxSpans entries: ring[rstart]
	// is the oldest retained span and indices wrap modulo len(ring).
	// The backing array grows geometrically up to MaxSpans, so small
	// runs stay small.
	ring   []span
	rstart int
	rlen   int
	open   map[*task.Task]int // task -> ring slot of its open span
	// evicted holds spans pushed out of the ring while still open, so
	// their eventual close still feeds the lateness series and exemplar
	// selection — aggregates are exact under any retention budget. It is
	// bounded by the in-flight task count, not by run length.
	evicted map[*task.Task]span
	nextID  uint64 // last span id == total spans ever recorded
	rep     int    // replication index stamped on spans

	// Causal-edge capture (procmgr.Listener.RecordCause). lastSpan maps a
	// task to the id of its most recent span — unlike the open index it
	// survives span close and ring eviction, so an edge from a finished
	// predecessor still resolves; entries retire when the owning global
	// task does. edges is a ring bounded by MaxSpans. injectID marks an
	// open chaos-burst window (see BeginInject).
	lastSpan    map[*task.Task]uint64
	edges       []edge
	estart      int
	injectID    uint64
	edgeUnspan  *Counter // edges dropped: endpoint task never spanned
	edgeEvicted *Counter // edges dropped: ring at the MaxSpans budget

	ex *exemplarStore

	// dagShape holds the {depth, width} of an announced precedence-DAG
	// global task, keyed by its accounting root, until the root span is
	// opened by the root's RecordRelease. Entries are cleared at
	// RecordGlobal.
	dagShape map[*task.Task][2]int

	sampler *Sampler
	nodes   []*node.Node
}

var (
	_ node.Observer = (*Telemetry)(nil)
)

// New returns a Telemetry with its instrument catalog registered. Call
// Bind before the run starts.
func New(o Options) *Telemetry {
	o = o.normalized()
	reg := NewRegistry()
	t := &Telemetry{
		opts: o,
		reg:  reg,

		enqueues: reg.Counter("sda_sched_enqueues_total", "", "items that joined a node queue"),
		starts:   reg.Counter("sda_sched_starts_total", "", "service starts (including preemption resumes)"),
		finishes: reg.Counter("sda_sched_finishes_total", "", "service completions"),
		aborts:   reg.Counter("sda_sched_aborts_total", "", "items discarded by either abortion mechanism"),
		preempts: reg.Counter("sda_sched_preempts_total", "", "in-service items suspended"),

		releases:  reg.Counter("sda_releases_total", "", "deadline assignments made by the process manager"),
		resubmits: reg.Counter("sda_resubmits_total", "", "re-releases after a local-scheduler abort"),

		doneLocal:     reg.Counter("sda_outcomes_total", `class="local"`, "resolved tasks by class"),
		doneGlobal:    reg.Counter("sda_outcomes_total", `class="global"`, "resolved tasks by class"),
		doneSubtask:   reg.Counter("sda_outcomes_total", `class="subtask"`, "resolved tasks by class"),
		missedLocal:   reg.Counter("sda_missed_total", `class="local"`, "missed deadlines by class"),
		missedGlobal:  reg.Counter("sda_missed_total", `class="global"`, "missed deadlines by class"),
		missedSubtask: reg.Counter("sda_missed_total", `class="subtask"`, "missed deadlines by class"),

		droppedSpans: reg.Counter("sda_spans_dropped_total", "", "spans discarded after MaxSpans"),

		edgeUnspan: reg.Counter("sda_edges_dropped_total", `reason="unspanned"`,
			"causal edges discarded by reason"),
		edgeEvicted: reg.Counter("sda_edges_dropped_total", `reason="evicted"`,
			"causal edges discarded by reason"),

		slackHist: reg.Histogram("sda_assigned_slack", "",
			"assigned slack at release: vdl - release - predicted work", -20, 80, 100),
		latenessHist: reg.Histogram("sda_span_lateness", "",
			"span end minus judging deadline (negative = early)", -50, 50, 100),

		slackSk: reg.Sketch("sda_slack_quantiles", "",
			"assigned slack at release (mergeable quantile sketch)"),
		latenessSk: reg.Sketch("sda_lateness_quantiles", "",
			"span end minus judging deadline (mergeable quantile sketch)"),
		latencySk: reg.Sketch("sda_latency_quantiles", "",
			"span duration end - start (mergeable quantile sketch)"),

		ring:     make([]span, min(o.MaxSpans, 1024)),
		open:     make(map[*task.Task]int, 256),
		evicted:  make(map[*task.Task]span),
		lastSpan: make(map[*task.Task]uint64, 256),
		dagShape: make(map[*task.Task][2]int, 16),
		ex:       newExemplarStore(o.ExemplarK, o.ExemplarSeed),
	}
	return t
}

// SetReplication stamps rep (0-based replication index) on every span the
// telemetry records from now on. The simulator calls it before the run
// starts; standalone uses default to rep 0.
func (t *Telemetry) SetReplication(rep int) { t.rep = rep }

// min is a tiny helper (the go.mod floor predates the builtin).
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Registry exposes the metrics registry (for tests and custom exports).
func (t *Telemetry) Registry() *Registry { return t.reg }

// Bind attaches the telemetry to a wired system: it registers the
// per-node queue-depth gauges, the in-flight and calendar gauges, and
// builds the sampler probes. Call once, after nodes exist and before
// Start.
func (t *Telemetry) Bind(eng *des.Engine, nodes []*node.Node) {
	t.eng = eng
	t.nodes = nodes
	probes := make([]Probe, 0, len(nodes)+3)
	for _, n := range nodes {
		n := n
		name := fmt.Sprintf("queue_node%d", n.ID())
		t.reg.GaugeFunc("sda_node_queue_depth", fmt.Sprintf(`node="%d"`, n.ID()),
			"waiting items per node (excluding in service)",
			func() float64 { return float64(n.QueueLen()) })
		probes = append(probes, Probe{Name: name, Read: func() float64 { return float64(n.QueueLen()) }})
	}
	t.reg.GaugeFunc("sda_inflight_globals", "",
		"global tasks released and not yet finished or aborted",
		func() float64 { return t.inflight })
	t.reg.GaugeFunc("sda_calendar_pending", "",
		"live events in the DES calendar",
		func() float64 { return float64(eng.Pending()) })
	t.reg.GaugeFunc("sda_calendar_slots", "",
		"DES calendar slots including lazy-cancel tombstones",
		func() float64 { return float64(eng.CalendarLen()) })
	probes = append(probes,
		Probe{Name: "inflight_globals", Read: func() float64 { return t.inflight }},
		Probe{Name: "calendar_pending", Read: func() float64 { return float64(eng.Pending()) }},
		Probe{Name: "calendar_slots", Read: func() float64 { return float64(eng.CalendarLen()) }},
	)
	t.sampler = newSampler(t.opts.SampleEvery, t.opts.MaxSamples, probes)
}

// Start arms the time-series sampler up to the run horizon. Bind must
// have been called.
func (t *Telemetry) Start(horizon simtime.Time) error {
	if t.eng == nil || t.sampler == nil {
		return fmt.Errorf("obs: Start before Bind")
	}
	return t.sampler.arm(t.eng, horizon)
}

// Ticks returns the number of sampler events the telemetry injected into
// the engine — the simulator subtracts it from its fired-event count so
// replication results are identical with telemetry on and off.
func (t *Telemetry) Ticks() uint64 {
	if t.sampler == nil {
		return 0
	}
	return t.sampler.Ticks()
}

// Sampler exposes the time-series sampler (nil before Bind).
func (t *Telemetry) Sampler() *Sampler { return t.sampler }

// --- node.Observer ---------------------------------------------------------

// OnEnqueue implements node.Observer.
func (t *Telemetry) OnEnqueue(*node.Node, *node.Item, simtime.Time) { t.enqueues.Inc() }

// OnStart implements node.Observer.
func (t *Telemetry) OnStart(*node.Node, *node.Item, simtime.Time) { t.starts.Inc() }

// OnFinish implements node.Observer.
func (t *Telemetry) OnFinish(*node.Node, *node.Item, simtime.Time) { t.finishes.Inc() }

// OnAbort implements node.Observer.
func (t *Telemetry) OnAbort(*node.Node, *node.Item, simtime.Time) { t.aborts.Inc() }

// OnPreempt implements node.Observer.
func (t *Telemetry) OnPreempt(*node.Node, *node.Item, simtime.Time) { t.preempts.Inc() }

// --- procmgr.Listener -------------------------------------------------------

// now returns the current simulated instant (0 before Bind, which only
// happens in unit tests driving hooks directly).
func (t *Telemetry) now() float64 {
	if t.eng == nil {
		return 0
	}
	return float64(t.eng.Now())
}

// RecordRelease implements procmgr.Listener: it observes one deadline
// assignment. The first release of a global root opens the root span;
// every release opens (or, on a local-abort re-release, reopens) the
// stage span of the released tree node and records the assigned slack.
func (t *Telemetry) RecordRelease(tk, root *task.Task, budget simtime.Time) {
	t.releases.Inc()
	now := t.now()
	slack := float64(tk.VirtualDeadline) - now - float64(tk.PredictedCriticalPath())
	t.slackHist.Observe(slack)
	t.slackSk.Observe(slack)

	retry := false
	if idx, ok := t.open[tk]; ok {
		// Re-release after a local-scheduler abort: close the failed
		// trial as aborted and open a fresh span for the retry.
		t.resubmits.Inc()
		retry = true
		t.closeSpan(idx, now, false, true)
		delete(t.open, tk)
	} else if t.closeEvicted(tk, now, false, true) {
		t.resubmits.Inc()
		retry = true
	}
	// The failed trial's span id, whether its span is still retained or
	// was evicted — the source of the retry edge below.
	retryFrom := t.lastSpan[tk]

	var rootID uint64
	if tk == root {
		t.inflight++
	} else if ri, ok := t.open[root]; ok {
		rootID = t.ring[ri].id
	}
	kind := "stage"
	nodeID := -1
	switch {
	case tk == root:
		kind = "global"
		if tk.IsSimple() {
			nodeID = tk.Node
		}
	case tk.IsSimple():
		kind = "subtask"
		nodeID = tk.Node
	}
	sp := span{
		kind:  kind,
		task:  tk.Name,
		node:  nodeID,
		root:  rootID,
		start: now,
		open:  true,
		vdl:   float64(tk.VirtualDeadline),
		slack: slack,
		exec:  float64(tk.CriticalPath()),
		pex:   float64(tk.PredictedCriticalPath()),
		boost: tk.PriorityBoost,
	}
	if tk == root {
		sp.realDL = float64(root.RealDeadline)
		sp.hasRDL = true
		if shape, ok := t.dagShape[root]; ok {
			sp.depth, sp.width = shape[0], shape[1]
		}
	}
	t.pushSpan(tk, sp)
	newID := t.lastSpan[tk]
	if retry && retryFrom != 0 {
		t.addEdge("retry", retryFrom, newID, t.lastSpan[root], now, tk.Name)
	}
	if tk == root && t.injectID != 0 {
		t.addEdge("inject", t.injectID, newID, newID, now, tk.Name)
	}
}

// BeginInject opens a fault-injection window: a zero-length marker span
// labels the burst instant, and every global root released before
// EndInject gets an "inject" edge from it, so assembled trace trees show
// which tasks a chaos burst caused. Windows do not nest; the latest
// Begin wins.
func (t *Telemetry) BeginInject(label string) {
	now := t.now()
	t.pushSpan(nil, span{kind: "inject", task: label, node: -1, start: now, end: now, vdl: now})
	t.injectID = t.nextID
}

// EndInject closes the window opened by BeginInject.
func (t *Telemetry) EndInject() { t.injectID = 0 }

// RecordCause implements procmgr.Listener: one causal edge of the
// precedence protocol, serialized against the span ids of its endpoint
// tasks. Edges whose endpoint never opened a span (an abort cascade
// reaching a never-released DAG vertex, or a span lost before telemetry
// saw the task) are dropped and counted — the surviving stream stays
// deterministic because span ids outlive ring eviction.
func (t *Telemetry) RecordCause(kind string, from, to, root *task.Task) {
	fid, ok := t.lastSpan[from]
	if !ok {
		t.edgeUnspan.Inc()
		return
	}
	tid, ok := t.lastSpan[to]
	if !ok {
		t.edgeUnspan.Inc()
		return
	}
	t.addEdge(kind, fid, tid, t.lastSpan[root], t.now(), to.Name)
}

// edge is the in-memory form of one causal edge: the span ids it links
// and the instant it fired. It becomes an edge Record only on export.
type edge struct {
	kind, label    string
	from, to, root uint64
	at             float64
}

// record converts the edge to its serialized form for replication rep,
// storing the firing instant in *at.
func (e *edge) record(rep int, at *float64) Record {
	*at = e.at
	return Record{
		Schema: SchemaVersion,
		Type:   "edge",
		Kind:   e.kind,
		Task:   e.label,
		Node:   -1,
		ID:     e.to,
		Root:   e.root,
		Rep:    rep,
		At:     at,
		From:   e.from,
	}
}

// addEdge records one edge in the bounded edge ring, evicting the
// oldest edge once the MaxSpans budget is reached.
func (t *Telemetry) addEdge(kind string, from, to, root uint64, at float64, label string) {
	e := edge{kind: kind, label: label, from: from, to: to, root: root, at: at}
	if len(t.edges) < t.opts.MaxSpans {
		t.edges = append(t.edges, e)
		return
	}
	t.edges[t.estart] = e
	t.estart = (t.estart + 1) % len(t.edges)
	t.edgeEvicted.Inc()
}

// Edges returns the retained causal-edge records, oldest first.
func (t *Telemetry) Edges() []Record {
	out := make([]Record, len(t.edges))
	for i := range out {
		out[i] = t.edges[(t.estart+i)%len(t.edges)].record(t.rep, new(float64))
	}
	return out
}

// DroppedEdges returns how many causal edges were discarded, for any
// reason.
func (t *Telemetry) DroppedEdges() uint64 {
	return t.edgeUnspan.Value() + t.edgeEvicted.Value()
}

// slot translates a logical span position (0 = oldest retained) to its
// ring index.
func (t *Telemetry) slot(i int) int { return (t.rstart + i) % len(t.ring) }

// pushSpan records a span in the ring and returns its slot, evicting the
// oldest retained span when the ring is at the MaxSpans budget. Open
// spans are indexed by their owner so a later close finds them; an
// evicted open span simply loses its index and the task's resolution is
// counted but not spanned.
func (t *Telemetry) pushSpan(owner *task.Task, sp span) int {
	t.nextID++
	sp.id = t.nextID
	sp.rep = t.rep
	sp.owner = owner
	if owner != nil {
		t.lastSpan[owner] = sp.id
	}
	var s int
	switch {
	case t.rlen < len(t.ring):
		s = t.slot(t.rlen)
		t.rlen++
	case len(t.ring) < t.opts.MaxSpans:
		// Grow the backing array geometrically up to the budget,
		// unwrapping the ring so rstart resets to 0.
		grown := make([]span, min(2*len(t.ring), t.opts.MaxSpans))
		for i := 0; i < t.rlen; i++ {
			grown[i] = t.ring[t.slot(i)]
		}
		// Slot indices changed; rebuild the open-span index.
		t.ring, t.rstart = grown, 0
		for i := 0; i < t.rlen; i++ {
			if t.ring[i].open && t.ring[i].owner != nil {
				t.open[t.ring[i].owner] = i
			}
		}
		s = t.rlen
		t.rlen++
	default:
		s = t.rstart
		t.rstart = (t.rstart + 1) % len(t.ring)
		old := &t.ring[s]
		if old.open && old.owner != nil && t.open[old.owner] == s {
			delete(t.open, old.owner)
			// Keep the evicted open span aside so its close still feeds
			// the lateness series and exemplars; only the log entry is
			// dropped.
			t.evicted[old.owner] = *old
		}
		t.droppedSpans.Inc()
	}
	t.ring[s] = sp
	if sp.open && owner != nil {
		t.open[owner] = s
	}
	return s
}

// closeSpan resolves the span in ring slot s at instant end.
func (t *Telemetry) closeSpan(s int, end float64, missed, aborted bool) {
	t.finishSpan(&t.ring[s], end, missed, aborted)
}

// closeEvicted resolves tk's span when the ring evicted it while still
// open, reporting whether one existed. The lateness observations and
// exemplar candidacy land as usual; only the log entry is gone.
func (t *Telemetry) closeEvicted(tk *task.Task, end float64, missed, aborted bool) bool {
	sp, ok := t.evicted[tk]
	if !ok {
		return false
	}
	delete(t.evicted, tk)
	t.finishSpan(&sp, end, missed, aborted)
	return true
}

// finishSpan marks sp resolved at instant end and feeds the lateness
// series and the exemplar selection.
func (t *Telemetry) finishSpan(sp *span, end float64, missed, aborted bool) {
	if !sp.open {
		return
	}
	sp.open = false
	sp.end = end
	sp.missed = missed
	sp.abort = aborted
	judge := sp.vdl
	if sp.hasRDL {
		judge = sp.realDL
	}
	t.latenessHist.Observe(end - judge)
	t.latenessSk.Observe(end - judge)
	t.latencySk.Observe(end - sp.start)
	t.ex.observeClose(sp)
}

// endOf picks the end instant for a resolving task: its finish time, or
// the current instant when it never finished (abort paths).
func (t *Telemetry) endOf(tk *task.Task) float64 {
	if !tk.Finish.IsNever() {
		return float64(tk.Finish)
	}
	return t.now()
}

// RecordDagSubmit implements procmgr.Listener: it stashes the DAG's
// shape so the root span opened by the subsequent RecordRelease carries
// the graph's depth and width.
func (t *Telemetry) RecordDagSubmit(d *task.Dag, root *task.Task) {
	t.dagShape[root] = [2]int{d.Depth(), d.Width()}
}

// RecordDagOutcome implements procmgr.Listener: DAG vertices
// are not reachable from the accounting root's Walk, so their causal
// bookkeeping retires here instead of in RecordGlobal. Every edge of the
// run has fired by the time the outcome is reported.
func (t *Telemetry) RecordDagOutcome(d *task.Dag, root *task.Task, missed bool) {
	for _, n := range d.Nodes() {
		delete(t.lastSpan, n.Task)
	}
}

// --- procmgr.Recorder -------------------------------------------------------

// RecordLocal implements procmgr.Recorder: local tasks are never
// released through RecordRelease, so their whole span is synthesized at
// resolution from the task's own attributes.
func (t *Telemetry) RecordLocal(tk *task.Task, missed bool) {
	t.doneLocal.Inc()
	if missed {
		t.missedLocal.Inc()
	}
	end := t.endOf(tk)
	slack := float64(tk.RealDeadline) - float64(tk.Arrival) - float64(tk.Exec)
	t.latenessHist.Observe(end - float64(tk.RealDeadline))
	t.latenessSk.Observe(end - float64(tk.RealDeadline))
	t.latencySk.Observe(end - float64(tk.Arrival))
	sp := span{
		kind:   "local",
		task:   tk.Name,
		node:   tk.Node,
		start:  float64(tk.Arrival),
		end:    end,
		vdl:    float64(tk.VirtualDeadline),
		realDL: float64(tk.RealDeadline),
		hasRDL: true,
		slack:  slack,
		exec:   float64(tk.Exec),
		pex:    float64(tk.Pex),
		missed: missed,
		abort:  tk.Aborted,
		boost:  tk.PriorityBoost,
	}
	s := t.pushSpan(nil, sp)
	t.ex.observeClose(&t.ring[s])
}

// RecordSubtask implements procmgr.Recorder: it closes the subtask's
// open stage span with the per-subtask verdict.
func (t *Telemetry) RecordSubtask(tk *task.Task, missed bool) {
	t.doneSubtask.Inc()
	if missed {
		t.missedSubtask.Inc()
	}
	if idx, ok := t.open[tk]; ok {
		t.closeSpan(idx, t.endOf(tk), missed, tk.Aborted)
		delete(t.open, tk)
	} else {
		t.closeEvicted(tk, t.endOf(tk), missed, tk.Aborted)
	}
}

// RecordGlobal implements procmgr.Recorder: it closes the root span and
// any stage spans the abort paths left open, and retires the task from
// the in-flight gauge.
func (t *Telemetry) RecordGlobal(root *task.Task, missed bool) {
	t.doneGlobal.Inc()
	if missed {
		t.missedGlobal.Inc()
	}
	t.inflight--
	delete(t.dagShape, root)
	root.Walk(func(n *task.Task) {
		delete(t.lastSpan, n)
		idx, ok := t.open[n]
		if !ok {
			if sp, ev := t.evicted[n]; ev {
				delete(t.evicted, n)
				end := t.endOf(n)
				m := missed
				if n != root {
					m = end > sp.vdl
				}
				t.finishSpan(&sp, end, m, root.Aborted)
			}
			return
		}
		if n == root {
			t.closeSpan(idx, t.endOf(n), missed, root.Aborted)
		} else {
			// A stage still open when the run resolves was cut short by
			// an abort (or is an interior node whose children resolved
			// it); judge it by its own virtual deadline.
			end := t.endOf(n)
			t.closeSpan(idx, end, end > t.ring[idx].vdl, root.Aborted)
		}
		delete(t.open, n)
	})
}

// --- exports ----------------------------------------------------------------

// WritePrometheus writes the full instrument catalog in the Prometheus
// text exposition format.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return t.reg.WritePrometheus(w)
}

// WriteCSV writes the sampler's retained time series as CSV.
func (t *Telemetry) WriteCSV(w io.Writer) error {
	if t.sampler == nil {
		return fmt.Errorf("obs: WriteCSV before Bind")
	}
	return t.sampler.WriteCSV(w)
}

// Summary renders a human-readable digest of the run's telemetry, using
// the histogram quantile helpers for the p50/p95/p99 triples.
func (t *Telemetry) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduling   enqueue %d  start %d  finish %d  abort %d  preempt %d\n",
		t.enqueues.Value(), t.starts.Value(), t.finishes.Value(), t.aborts.Value(), t.preempts.Value())
	fmt.Fprintf(&b, "releases     %d (%d resubmits), %g global task(s) in flight at end\n",
		t.releases.Value(), t.resubmits.Value(), t.inflight)
	fmt.Fprintf(&b, "outcomes     local %d (missed %d)  global %d (missed %d)  subtask %d (missed %d)\n",
		t.doneLocal.Value(), t.missedLocal.Value(),
		t.doneGlobal.Value(), t.missedGlobal.Value(),
		t.doneSubtask.Value(), t.missedSubtask.Value())
	fmt.Fprintf(&b, "spans        %d recorded, %d retained, %d dropped, %d open at horizon\n",
		t.nextID, t.rlen, t.droppedSpans.Value(), len(t.open))
	fmt.Fprintf(&b, "edges        %d retained, %d dropped\n", len(t.edges), t.DroppedEdges())
	if t.slackHist.Count() > 0 {
		q := t.slackHist.Quantiles(0.5, 0.95, 0.99)
		fmt.Fprintf(&b, "slack        mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f (assigned, per release)\n",
			t.slackHist.Mean(), q[0], q[1], q[2])
	}
	if t.latenessHist.Count() > 0 {
		q := t.latenessHist.Quantiles(0.5, 0.95, 0.99)
		fmt.Fprintf(&b, "lateness     mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f (per resolved span)\n",
			t.latenessHist.Mean(), q[0], q[1], q[2])
	}
	if t.sampler != nil {
		fmt.Fprintf(&b, "samples      %d ticks, %d retained x %d series (every %g time units)\n",
			t.sampler.Ticks(), t.sampler.Len(), len(t.sampler.probes), float64(t.opts.SampleEvery))
	}
	return b.String()
}
