// Package obs is the unified simulation telemetry layer: a metrics
// registry (counters, gauges, quantile sketches), task-lifecycle spans,
// and a ring-buffered time-series sampler, all clocked on simulated
// time.
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
// Exports: a run's telemetry is handed to a Merged fold (MergeInto), one
// shard per replication, and Merged.ExportDir writes the bundle — JSONL
// spans, edges and exemplars, Prometheus text exposition, a quantile-band
// SVG dashboard and a summary. A run that built one system also writes
// its sampled time series beside it (Sampler.WriteCSV). cmd/sdaobs and
// the -obs flags on sdasim/sdaexp/sdascen drive them from the command
// line.
package obs

import (
	"fmt"

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
// wiring), Bind it to the engine and nodes, Start the sampler, and hand
// it to a Merged with MergeInto after the run. All methods run on the
// simulation goroutine; Telemetry is not safe for concurrent use.
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

	// Mergeable quantile sketches of the assigned slack at every
	// release, the lateness at span close (end - judging deadline) and
	// the span duration; they survive the cross-replication merge
	// losslessly.
	slackSk    *SketchInstrument
	latenessSk *SketchInstrument
	latencySk  *SketchInstrument

	// The span store is a ring of at most MaxSpans spans. Span ids are
	// consecutive, so it holds ids nextID-spans.n+1 .. nextID in order
	// and a retained span's position follows from its id (see
	// retained). MergeInto hands the ring to a fold and leaves an empty
	// one.
	spans  ring[span]
	nextID uint64 // last span id == total spans ever recorded
	rep    int    // replication index of every span
	merged bool   // MergeInto has handed the span and edge logs over

	// names interns the task names and burst labels spans and edges
	// refer to.
	names names

	// latest maps a task to its most recent span: the one a later close
	// resolves while it is open, and the causal-edge endpoint (see
	// RecordCause) even after it closes or leaves the ring. Entries go
	// when the owning global task resolves.
	latest map[*task.Task]uint64
	// evicted holds spans pushed out of the ring while still open, by
	// id, so their eventual close still feeds the lateness series and
	// exemplar selection — aggregates are exact under any retention
	// budget. It is bounded by the in-flight task count, not by run
	// length. closing holds the evicted span being closed.
	evicted   map[uint64]span
	closing   span
	openSpans int // open spans, retained or evicted

	// Causal-edge capture (procmgr.Listener.RecordCause). edges is a ring
	// bounded by MaxSpans. injectID marks an open chaos-burst window (see
	// BeginInject).
	edges       ring[edge]
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

		slackSk: reg.Sketch("sda_slack_quantiles", "",
			"assigned slack at release (mergeable quantile sketch)"),
		latenessSk: reg.Sketch("sda_lateness_quantiles", "",
			"span end minus judging deadline (mergeable quantile sketch)"),
		latencySk: reg.Sketch("sda_latency_quantiles", "",
			"span duration end - start (mergeable quantile sketch)"),

		spans:    newRing[span](o.MaxSpans),
		edges:    newRing[edge](o.MaxSpans),
		latest:   make(map[*task.Task]uint64, 256),
		evicted:  make(map[uint64]span),
		dagShape: make(map[*task.Task][2]int, 16),
		ex:       newExemplarStore(o.ExemplarK, o.ExemplarSeed),
	}
	return t
}

// SetReplication sets the 0-based replication index of the telemetry's
// spans, edges and exemplars. The simulator calls it before the run
// starts; standalone uses default to rep 0.
func (t *Telemetry) SetReplication(rep int) {
	t.rep = rep
	t.ex.rep = rep
}

// DrawFrom makes the telemetry take the chunks of its span and edge
// rings from m's free lists, which hold the chunks m's budget trim
// released from the logs of earlier replications, and makes m keep
// such chunks until DropFree. sim.Run draws every replication's
// telemetry from the run's fold. Call before the run starts.
func (t *Telemetry) DrawFrom(m *Merged) {
	m.freeSpans.setKeep(true)
	m.freeEdges.setKeep(true)
	t.spans.free, t.edges.free = &m.freeSpans, &m.freeEdges
}

// Clone returns a copy of the finished telemetry that owns copies of
// its span and edge logs and shares everything else, so one finished
// replication can be handed to more than one fold: MergeInto hands the
// copy's logs over and leaves t's. Benchmarks and differential tests
// fold the same replications repeatedly through it.
func (t *Telemetry) Clone() *Telemetry {
	cp := *t
	cp.spans, cp.edges = t.spans.clone(), t.edges.clone()
	return &cp
}

// Bind attaches the telemetry to a wired system: it registers the
// per-node queue-depth gauges, the in-flight and calendar gauges, and
// builds the sampler probes. Call once, after nodes exist and before
// Start.
func (t *Telemetry) Bind(eng *des.Engine, nodes []*node.Node) {
	t.eng = eng
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
	pex := float64(tk.PredictedCriticalPath()) // a walk of a composite: take it once
	slack := float64(tk.VirtualDeadline) - now - pex
	t.slackSk.Observe(slack)

	// A still-open span of tk is a failed trial: a re-release after a
	// local-scheduler abort. Close it as aborted; its id, whether the
	// span is still retained or was evicted, is the source of the retry
	// edge below.
	retry := false
	var retryFrom uint64
	if prev, ok := t.latest[tk]; ok {
		if sp := t.takeOpen(prev); sp != nil {
			t.resubmits.Inc()
			retry = true
			t.finishSpan(sp, now, false, true)
		}
		retryFrom = prev
	}

	var rootID uint64
	if tk == root {
		t.inflight++
	} else if id, ok := t.latest[root]; ok {
		if sp := t.retained(id); sp != nil && sp.open {
			rootID = id
		}
	}
	kind := kindStage
	nodeID := -1
	switch {
	case tk == root:
		kind = kindGlobal
		if tk.IsSimple() {
			nodeID = tk.Node
		}
	case tk.IsSimple():
		kind = kindSubtask
		nodeID = tk.Node
	}
	name := t.names.id(tk.Name)
	sp := t.pushSpan(tk, true)
	sp.kind = kind
	sp.task = name
	sp.node = int32(nodeID)
	sp.root = rootID
	sp.start = now
	sp.vdl = float64(tk.VirtualDeadline)
	sp.slack = slack
	sp.exec = float64(tk.CriticalPath())
	sp.pex = pex
	sp.boost = tk.PriorityBoost
	if tk == root {
		sp.realDL = float64(root.RealDeadline)
		sp.hasRDL = true
		if shape, ok := t.dagShape[root]; ok {
			sp.depth, sp.width = int32(shape[0]), int32(shape[1])
		}
	}
	newID := t.nextID
	if retry && retryFrom != 0 {
		t.addEdge(edgeRetry, retryFrom, newID, t.lastSpan(root), now, name)
	}
	if tk == root && t.injectID != 0 {
		t.addEdge(edgeInject, t.injectID, newID, newID, now, name)
	}
}

// BeginInject opens a fault-injection window: a zero-length marker span
// labels the burst instant, and every global root released before
// EndInject gets an "inject" edge from it, so assembled trace trees show
// which tasks a chaos burst caused. Windows do not nest; the latest
// Begin wins.
func (t *Telemetry) BeginInject(label string) {
	now := t.now()
	name := t.names.id(label)
	sp := t.pushSpan(nil, false)
	sp.kind, sp.task, sp.node = kindInject, name, -1
	sp.start, sp.end, sp.vdl = now, now, now
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
	code := edgeKindOf(kind)
	fid := t.lastSpan(from)
	if fid == 0 {
		t.edgeUnspan.Inc()
		return
	}
	tid := t.lastSpan(to)
	if tid == 0 {
		t.edgeUnspan.Inc()
		return
	}
	t.addEdge(code, fid, tid, t.lastSpan(root), t.now(), t.names.id(to.Name))
}

// edge is the in-memory form of one causal edge: the span ids it links
// and the instant it fired. It holds no pointer (40 bytes): the kind is
// a code into edgeKindNames and the label, the effect task's name, an
// index into the telemetry's name table. It becomes an edge Record only
// on export.
type edge struct {
	from, to, root uint64
	at             float64
	label          uint32
	kind           edgeKind
}

// edgeKind codes an edge's kind; edgeKindNames holds the exported names.
type edgeKind uint8

const (
	edgeParent edgeKind = iota
	edgePred
	edgeAbort
	edgeRetry
	edgeInject
	numEdgeKinds
)

// edgeKindNames maps an edgeKind to its Record.Kind string.
var edgeKindNames = [numEdgeKinds]string{"parent", "pred", "abort", "retry", "inject"}

// edgeKindOf returns the code of a kind the process manager reports. Its
// vocabulary is closed (see procmgr.Listener.RecordCause), so any other
// kind is a programming error.
func edgeKindOf(kind string) edgeKind {
	switch kind {
	case "parent":
		return edgeParent
	case "pred":
		return edgePred
	case "abort":
		return edgeAbort
	}
	panic(fmt.Sprintf("obs: unknown causal edge kind %q", kind))
}

// record converts the edge of replication rep, whose label indexes
// list, to its serialized form, storing the firing instant in *at.
func (e *edge) record(rep int, list []string, at *float64) Record {
	*at = e.at
	return Record{
		Schema: SchemaVersion,
		Type:   "edge",
		Kind:   edgeKindNames[e.kind],
		Task:   nameAt(list, e.label),
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
func (t *Telemetry) addEdge(kind edgeKind, from, to, root uint64, at float64, label uint32) {
	slot, evicted := t.edges.push()
	*slot = edge{from: from, to: to, root: root, at: at, label: label, kind: kind}
	if evicted {
		t.edgeEvicted.Inc()
	}
}

// edgesTail returns the last n retained causal-edge records, oldest
// first (n <= 0 returns them all).
func (t *Telemetry) edgesTail(n int) []Record {
	start := 0
	if n > 0 && n < t.edges.n {
		start = t.edges.n - n
	}
	out := make([]Record, t.edges.n-start)
	ats := make([]float64, len(out))
	for i := range out {
		out[i] = t.edges.get(start+i).record(t.rep, t.names.list, &ats[i])
	}
	return out
}

// retained returns span id, or nil when the ring no longer holds it.
// Ids are consecutive, so the oldest retained span has id
// nextID-spans.n+1 and every other one follows it in order.
func (t *Telemetry) retained(id uint64) *span {
	oldest := t.nextID - uint64(t.spans.n) + 1
	if id < oldest {
		return nil
	}
	return t.spans.get(int(id - oldest))
}

// lastSpan returns the id of tk's most recent span, or 0 when tk has no
// entry: it never opened a span, or its global task resolved.
func (t *Telemetry) lastSpan(tk *task.Task) uint64 {
	return t.latest[tk]
}

// takeOpen returns span id for closing when it is open, or nil. A span
// the ring evicted while open leaves the evicted set and comes back as
// t.closing: closing it still feeds the lateness series and exemplars,
// though no log entry is left to update.
func (t *Telemetry) takeOpen(id uint64) *span {
	if sp := t.retained(id); sp != nil {
		if sp.open {
			return sp
		}
		return nil
	}
	sp, ok := t.evicted[id]
	if !ok {
		return nil
	}
	delete(t.evicted, id)
	t.closing = sp
	return &t.closing
}

// pushSpan claims the ring slot of a new span and returns it, evicting
// the oldest retained span when the ring is at the MaxSpans budget. A
// span with an owner becomes the owner's latest; an evicted open span
// moves to the evicted set so its close still counts. The slot comes
// back zeroed but for its id and open flag; the caller fills in the
// rest in place.
func (t *Telemetry) pushSpan(owner *task.Task, open bool) *span {
	t.nextID++
	if owner != nil {
		t.latest[owner] = t.nextID
	}
	if open {
		t.openSpans++
	}
	slot, evicted := t.spans.push()
	if evicted {
		if slot.open {
			// Keep the evicted open span aside so its close still feeds
			// the lateness series and exemplars; only the log entry is
			// dropped.
			t.evicted[slot.id] = *slot
		}
		t.droppedSpans.Inc()
	}
	*slot = span{}
	slot.id, slot.open = t.nextID, open
	return slot
}

// finishSpan marks sp resolved at instant end and feeds the lateness
// series and the exemplar selection.
func (t *Telemetry) finishSpan(sp *span, end float64, missed, aborted bool) {
	if !sp.open {
		return
	}
	t.openSpans--
	sp.open = false
	sp.end = end
	sp.missed = missed
	sp.abort = aborted
	judge := sp.vdl
	if sp.hasRDL {
		judge = sp.realDL
	}
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

// RecordDagOutcome implements procmgr.Listener. It is the DAG run's final
// callback: the manager reclaims the DAG, its accounting root and every
// vertex task right after it, so each vertex's index entry goes here. A
// vertex span still open here was cut short by the run's end and closes
// aborted, which attribution counts as censored, like any open span.
// RecordGlobal's walk of the accounting root has normally closed them
// all already.
func (t *Telemetry) RecordDagOutcome(d *task.Dag, root *task.Task, missed bool) {
	for _, n := range d.Nodes() {
		id, ok := t.latest[n.Task]
		if !ok {
			continue
		}
		delete(t.latest, n.Task)
		if sp := t.takeOpen(id); sp != nil {
			end := t.endOf(n.Task)
			t.finishSpan(sp, end, end > sp.vdl, true)
		}
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
	t.latenessSk.Observe(end - float64(tk.RealDeadline))
	t.latencySk.Observe(end - float64(tk.Arrival))
	name := t.names.id(tk.Name)
	sp := t.pushSpan(nil, false)
	sp.kind = kindLocal
	sp.task = name
	sp.node = int32(tk.Node)
	sp.start = float64(tk.Arrival)
	sp.end = end
	sp.vdl = float64(tk.VirtualDeadline)
	sp.realDL = float64(tk.RealDeadline)
	sp.hasRDL = true
	sp.slack = slack
	sp.exec = float64(tk.Exec)
	sp.pex = float64(tk.Pex)
	sp.missed = missed
	sp.abort = tk.Aborted
	sp.boost = tk.PriorityBoost
	t.ex.observeClose(sp)
}

// RecordSubtask implements procmgr.Recorder: it closes the subtask's
// open stage span with the per-subtask verdict.
func (t *Telemetry) RecordSubtask(tk *task.Task, missed bool) {
	t.doneSubtask.Inc()
	if missed {
		t.missedSubtask.Inc()
	}
	id, ok := t.latest[tk]
	if !ok {
		return
	}
	if sp := t.takeOpen(id); sp != nil {
		t.finishSpan(sp, t.endOf(tk), missed, tk.Aborted)
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
		id, ok := t.latest[n]
		if !ok {
			return
		}
		delete(t.latest, n)
		sp := t.takeOpen(id)
		if sp == nil {
			return
		}
		end, m := t.endOf(n), missed
		if n != root {
			// A stage still open when the run resolves was cut short by
			// an abort (or is an interior node whose children resolved
			// it); judge it by its own virtual deadline.
			m = end > sp.vdl
		}
		t.finishSpan(sp, end, m, root.Aborted)
	})
}
