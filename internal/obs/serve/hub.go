// Package serve is the opt-in live observability HTTP server: it exposes
// a running simulation's telemetry — Prometheus metrics, progress, the
// span tail, causal traces and the live miss-cause attribution — without
// perturbing the run.
//
// The hub folds nothing itself. A run's shards fold into the run's own
// obs.Merged (sim.Run's Result.Obs, handed to the hub through Attach),
// and the hub reads that fold. Simulation goroutines never handle HTTP:
// they only call Hub.Publish (via the sampler's OnTick hook, and once
// more when a replication ends), which keeps a bounded tail snapshot of
// the calling shard until the fold holds it. Publishing happens inside
// existing sampler ticks — read-only DES events — so attaching a hub
// cannot reorder the calendar: replication results, exports and scenario
// golden trace hashes are bit-identical with and without -serve.
//
// HTTP handlers render lazily, on the first read after a publish or a
// fold. Mid-run, a read sees Merged.View: the fold's instruments plus
// each live shard's head, and a span and edge tail of at most the hub's
// ring size, so /metrics, /progress and /summary are cross-replication
// views while workers run shards concurrently and a read costs
// O(ring) records however long the run gets. Once every replication has
// folded (or Finalize pins the fold), /metrics, /summary, /spans, /blame
// and /trace come from the fold's Snapshot and are byte-identical to the
// run's offline exports.
//
// Memory stays bounded for arbitrarily long runs: the hub holds one tail
// snapshot per replication still running or not yet folded, and drops it
// once the fold passes it.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/tracetree"
	"repro/internal/simtime"
)

// DefaultEvery is the default publish cadence in sampler ticks (the
// -serve-every flag default): a snapshot every 4th tick keeps the live
// view fresh at a quarter of the worst-case publish cost.
const DefaultEvery = 4

// RunInfo labels the run being served.
type RunInfo struct {
	Label        string
	Replication  int // 1-based; 0 when shards run concurrently
	Replications int
	Horizon      float64
}

// Progress is the JSON payload of /progress and its SSE stream. With
// multiple replications the counters aggregate across shards: Ticks,
// Spans, Globals and Missed sum folded and live shards (Spans counts
// what each shard's ring retained, before the fold's global budget
// trim), Percent is the mean completion fraction over all replications,
// ShardsDone counts the replications that finished, and Done flips once
// every replication has folded into the run's telemetry (or the run was
// finalized).
type Progress struct {
	Label        string  `json:"label,omitempty"`
	Replication  int     `json:"replication,omitempty"`
	Replications int     `json:"replications,omitempty"`
	Now          float64 `json:"now"`
	Horizon      float64 `json:"horizon"`
	Percent      float64 `json:"percent"`
	Ticks        uint64  `json:"ticks"`
	Spans        int     `json:"spans"`
	Globals      int     `json:"globals"`
	Missed       int     `json:"missed_globals"`
	ShardsDone   int     `json:"shards_done,omitempty"`
	Done         bool    `json:"done"`
}

// shardState is the latest publish of a replication the fold does not
// hold yet.
type shardState struct {
	snap *obs.Snapshot // bounded tail: Snapshot(ring)
	now  float64
	done bool // the replication finished; it awaits its fold
}

// Hub serves the telemetry of one run, or of a sequence of runs reusing
// the hub (a scenario suite): a publish or Finalize with a different
// fold starts a new run. Publish runs on the shard's simulation
// goroutine; every accessor is safe for concurrent use by HTTP handlers.
type Hub struct {
	ring int // span and edge tail capacity of the mid-run view

	mu        sync.Mutex
	info      RunInfo
	fold      *obs.Merged         // the run's own fold
	shards    map[int]*shardState // by replication; dropped once folded
	final     bool                // Finalize pinned the fold as the whole run
	maxNow    float64
	version   uint64 // bumped by every publish
	publishes uint64
	subs      map[chan struct{}]bool

	// The view and its artifacts are rendered on the first read after a
	// publish or a fold — never on a simulation goroutine — and cached
	// until the version or the fold count moves. blame, blameJSON and
	// forest fill in on first use.
	renderedVersion uint64
	renderedFolded  int
	view            *obs.Snapshot
	whole           bool // view is the fold's Snapshot of the finished run
	progressJSON    []byte
	blame           *attrib.Report
	blameJSON       []byte
	forest          *tracetree.Forest
}

// NewHub returns a hub whose mid-run view keeps at most ringSize spans
// and edges (default 512 when ringSize <= 0).
func NewHub(ringSize int) *Hub {
	if ringSize <= 0 {
		ringSize = 512
	}
	return &Hub{
		ring:            ringSize,
		shards:          make(map[int]*shardState),
		renderedVersion: ^uint64(0),
		subs:            make(map[chan struct{}]bool),
	}
}

// Attach hooks the hub onto tel's sampler so every `every`-th tick
// publishes a snapshot into the view of fold, the merge tel's
// replication folds into (sim.System.Fold under sim.Run; a single-system
// run creates one and hands tel over with Telemetry.MergeInto). Call per
// shard after the system is built (the sampler exists once telemetry is
// bound) and before the run starts.
func (h *Hub) Attach(tel *obs.Telemetry, fold *obs.Merged, info RunInfo, every int) {
	if every <= 0 {
		every = 1
	}
	s := tel.Sampler()
	if s == nil {
		return
	}
	n := 0
	s.SetOnTick(func(now simtime.Time) {
		n++
		if n%every == 0 {
			h.Publish(tel, fold, info, float64(now), false)
		}
	})
}

// Publish keeps a bounded tail snapshot of tel, replication tel's shard
// of fold, until fold holds it. It must run on the goroutine driving
// that shard (telemetry is not concurrency-safe) and only reads model
// state — it is safe to call from a sampler tick; different shards may
// publish concurrently. done marks the shard's final state, published
// before the shard folds.
func (h *Hub) Publish(tel *obs.Telemetry, fold *obs.Merged, info RunInfo, now float64, done bool) {
	snap := tel.Snapshot(h.ring)
	h.mu.Lock()
	h.adoptLocked(fold)
	h.shards[snap.Rep] = &shardState{snap: snap, now: now, done: done}
	h.dropFoldedLocked(fold.Shards())
	h.info = info
	h.maxNow = max(h.maxNow, now)
	subs := h.publishedLocked()
	h.mu.Unlock()
	notify(subs)
}

// Finalize pins the served artifacts to the whole run's fold m
// (sim.Result.Obs), making /metrics, /summary, /spans and /blame
// byte-identical to the run's offline exports even when info does not
// say how many replications to wait for. Call once after the run
// completes; safe from any goroutine.
func (h *Hub) Finalize(m *obs.Merged, info RunInfo) {
	if m == nil {
		return
	}
	h.mu.Lock()
	h.adoptLocked(m)
	h.info, h.final = info, true
	h.maxNow = max(h.maxNow, info.Horizon)
	subs := h.publishedLocked()
	h.mu.Unlock()
	notify(subs)
}

// adoptLocked starts a new run when fold is not the one the hub serves.
// Subscribers and the publish counter survive.
func (h *Hub) adoptLocked(fold *obs.Merged) {
	if fold == h.fold {
		return
	}
	h.fold = fold
	clear(h.shards)
	h.final, h.maxNow = false, 0
}

// dropFoldedLocked drops the shards of the first folded replications,
// which the fold now holds.
func (h *Hub) dropFoldedLocked(folded int) {
	for rep := range h.shards {
		if rep < folded {
			delete(h.shards, rep)
		}
	}
}

// publishedLocked counts a publish, invalidates the rendered view and
// returns the subscribers to notify.
func (h *Hub) publishedLocked() []chan struct{} {
	h.version++
	h.publishes++
	subs := make([]chan struct{}, 0, len(h.subs))
	for ch := range h.subs {
		subs = append(subs, ch)
	}
	return subs
}

// notify wakes SSE subscribers without ever blocking the publishing
// goroutine: a subscriber with a wake-up already pending keeps just
// that one, and reads the latest progress when it gets to it.
func notify(subs []chan struct{}) {
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// renderLocked brings the view up to date with the latest publish and
// the fold; callers hold the lock.
func (h *Hub) renderLocked() {
	if h.fold == nil {
		return
	}
	folded := h.fold.Shards()
	if h.renderedVersion == h.version && h.renderedFolded == folded {
		return
	}
	h.dropFoldedLocked(folded)
	var view *obs.Snapshot
	if !h.wholeRun(folded) {
		reps := make([]int, 0, len(h.shards))
		for rep := range h.shards {
			reps = append(reps, rep)
		}
		sort.Ints(reps)
		live := make([]*obs.Snapshot, len(reps))
		for i, rep := range reps {
			live[i] = h.shards[rep].snap
		}
		// Shards of one run share one instrument catalog, so the merge
		// cannot fail; a view that did would just stay empty.
		view, folded, _ = h.fold.View(live, h.ring)
	}
	h.whole = h.wholeRun(folded)
	if h.whole {
		view = h.fold.Snapshot()
	}
	h.renderedVersion, h.renderedFolded = h.version, folded
	h.view = view
	h.blame, h.blameJSON, h.forest = nil, nil, nil
	h.progressJSON, _ = json.Marshal(h.progressLocked(folded))
}

// wholeRun reports whether the fold holds the whole run once folded
// shards have folded.
func (h *Hub) wholeRun(folded int) bool {
	return h.final || h.info.Replications > 0 && folded >= h.info.Replications
}

// progressLocked aggregates run progress over the folded shards and the
// live ones after them; callers hold the lock and have rendered the
// view.
func (h *Hub) progressLocked(folded int) Progress {
	p := Progress{
		Label:        h.info.Label,
		Replication:  h.info.Replication,
		Replications: h.info.Replications,
		Now:          h.maxNow,
		Horizon:      h.info.Horizon,
		ShardsDone:   folded,
		Done:         h.whole,
	}
	if v := h.view; v != nil {
		p.Ticks, p.Spans = v.SamplerTicks, v.Retained
		p.Globals, p.Missed = v.GlobalCounts()
	}
	frac, live := float64(folded), 0
	for rep, st := range h.shards {
		if rep < folded {
			continue
		}
		live++
		switch {
		case st.done:
			p.ShardsDone++
			frac++
		case h.info.Horizon > 0:
			frac += min(st.now/h.info.Horizon, 1)
		}
	}
	reps := max(h.info.Replications, folded+live, 1)
	p.Percent = min(100*frac/float64(reps), 100)
	return p
}

// Metrics returns the latest merged Prometheus exposition (nil before
// the first publish).
func (h *Hub) Metrics() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.renderLocked()
	if h.view == nil {
		return nil
	}
	var b bytes.Buffer
	_ = h.view.Registry.WritePrometheus(&b)
	return b.Bytes()
}

// Summary returns the latest merged telemetry digest.
func (h *Hub) Summary() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.renderLocked()
	if h.view == nil {
		return ""
	}
	return h.view.Summary()
}

// SpansTail returns the latest span tail, at most the hub's ring size
// (do not mutate).
func (h *Hub) SpansTail() []obs.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.renderLocked()
	return h.tailLocked()
}

// tailLocked returns the view's last ring spans; callers hold the lock.
func (h *Hub) tailLocked() []obs.Record {
	if h.view == nil {
		return nil
	}
	spans := h.view.Spans
	return spans[max(len(spans)-h.ring, 0):]
}

// Blame returns the latest attribution report (nil before the first
// publish; immutable once rendered). Mid-run it covers the span tail,
// keeping a read O(ring) however long the run gets; once the whole run
// has folded it analyzes the retained-plus-exemplar span set, matching
// the exported bundle's blame report and an offline sdaobs -from pass
// over that bundle.
func (h *Hub) Blame() *attrib.Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.blameLocked()
}

func (h *Hub) blameLocked() *attrib.Report {
	h.renderLocked()
	if h.blame == nil && h.view != nil {
		scope := h.tailLocked()
		if h.whole {
			scope = h.view.SpansForAnalysis()
		}
		h.blame = attrib.Analyze(scope)
	}
	return h.blame
}

// BlameJSON returns the latest attribution report as JSON (nil before
// the first publish), cached until the view changes.
func (h *Hub) BlameJSON() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rpt := h.blameLocked(); h.blameJSON == nil && rpt != nil {
		h.blameJSON, _ = rpt.JSON()
	}
	return h.blameJSON
}

// Trace assembles the view's spans and causal edges into trace trees and
// writes them as JSONL: every tree when task is empty, otherwise only
// the trees containing a span with that task name. The forest is cached
// until the view changes. It returns the number of trees written.
func (h *Hub) Trace(w io.Writer, task string) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.renderLocked()
	if h.view == nil {
		return 0, nil
	}
	if h.forest == nil {
		recs := make([]obs.Record, 0, len(h.view.Spans)+len(h.view.Edges))
		recs = append(append(recs, h.view.Spans...), h.view.Edges...)
		h.forest = tracetree.Build(recs)
	}
	trees := h.forest.Trees
	if task != "" {
		trees = h.forest.TreesForTask(task)
	}
	for _, t := range trees {
		if err := tracetree.WriteTree(w, t); err != nil {
			return 0, err
		}
	}
	return len(trees), nil
}

// ProgressJSON returns the latest progress payload (nil before the first
// publish).
func (h *Hub) ProgressJSON() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.renderLocked()
	return h.progressJSON
}

// Publishes returns how many snapshots have been published.
func (h *Hub) Publishes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.publishes
}

// subscribe registers an SSE subscriber, woken after publishes.
func (h *Hub) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ch] = true
	h.mu.Unlock()
	return ch
}

// unsubscribe removes an SSE subscriber.
func (h *Hub) unsubscribe(ch chan struct{}) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}
