package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/svgplot"
)

// Snapshot is an immutable copy of one replication's telemetry, rendered
// on the goroutine that owns the Telemetry. It is the unit the
// cross-replication merge consumes: workers snapshot their shard when a
// replication finishes (or mid-run on a sampler tick) and hand the copy
// to a Merged, which folds shards in replication-index order.
type Snapshot struct {
	// Rep is the 0-based replication index of the shard, or -1 for a
	// merged aggregate.
	Rep int

	// Registry holds every instrument: counters, gauges-at-end,
	// histograms and quantile sketches.
	Registry RegistrySnapshot

	// Spans is the shard's retained span ring (possibly tail-limited for
	// mid-run snapshots), in release order.
	Spans []Record

	// Edges is the shard's retained causal-edge log, oldest first.
	Edges []Record

	// Exemplars is the shard's bounded exemplar selection.
	Exemplars ExemplarSet

	// OpenSpans counts spans still open at snapshot time; Retained how
	// many the ring holds (Spans may be a shorter tail of it); TotalSpans
	// every span ever recorded (retained or evicted).
	OpenSpans  int
	Retained   int
	TotalSpans uint64

	// SamplerTicks counts the sampler events the shard injected.
	SamplerTicks uint64

	// MaxSpans is the shard's retention budget; the merge inherits it as
	// the global budget.
	MaxSpans int
}

// Snapshot renders the telemetry's current state as an immutable
// Snapshot. tailSpans limits how many retained spans are copied (<= 0
// copies the whole ring); mid-run callers pass their display ring size
// so a snapshot costs O(tail), final callers pass 0. Must run on the
// goroutine driving the simulation (it reads func-backed gauges).
func (t *Telemetry) Snapshot(tailSpans int) *Snapshot {
	s := t.head()
	s.Spans = t.SpansTail(tailSpans)
	s.Edges = t.Edges()
	return s
}

// head renders everything of a Snapshot except the span and edge logs.
func (t *Telemetry) head() *Snapshot {
	return &Snapshot{
		Rep:          t.rep,
		Registry:     t.reg.Snapshot(),
		Exemplars:    t.ex.snapshot(),
		OpenSpans:    t.openSpans,
		Retained:     t.spans.n,
		TotalSpans:   t.nextID,
		SamplerTicks: t.Ticks(),
		MaxSpans:     t.opts.MaxSpans,
	}
}

// MergeInto hands the finished replication's telemetry to m as one
// shard: its instrument values and exemplars, and its span and edge
// rings as they are, with no Record built. The merge reads the rings
// until its budget trim releases them, so the telemetry must record
// nothing after the call. Like Snapshot it must run on the goroutine
// driving the simulation.
func (t *Telemetry) MergeInto(m *Merged) error {
	spans, edges := t.spans, t.edges
	return m.add(&shard{
		head:  t.head(),
		spans: shardLog[span]{ring: &spans},
		edges: shardLog[edge]{ring: &edges},
	})
}

// cloneHead deep-copies the snapshot without its span and edge logs, as
// the start of a merged aggregate (Rep = -1).
func (s *Snapshot) cloneHead() *Snapshot {
	return &Snapshot{
		Rep:          -1,
		Registry:     s.Registry.clone(),
		Exemplars:    s.Exemplars.clone(),
		OpenSpans:    s.OpenSpans,
		Retained:     s.Retained,
		TotalSpans:   s.TotalSpans,
		SamplerTicks: s.SamplerTicks,
		MaxSpans:     s.MaxSpans,
	}
}

// mergeHead folds everything of shard s except its span and edge logs
// into the aggregate in place. The shard is only read.
func (a *Snapshot) mergeHead(s *Snapshot) error {
	if err := a.Registry.Merge(s.Registry); err != nil {
		return err
	}
	a.Exemplars.Merge(s.Exemplars)
	a.OpenSpans += s.OpenSpans
	a.Retained += s.Retained
	a.TotalSpans += s.TotalSpans
	a.SamplerTicks += s.SamplerTicks
	if s.MaxSpans > a.MaxSpans {
		a.MaxSpans = s.MaxSpans
	}
	return nil
}

// MergeSnapshots folds the given snapshots, in the order given, into one
// merged Snapshot (Rep = -1) without modifying the inputs. Unlike Merged
// it applies no global span-budget trim and accepts any replication
// labels: it is the building block live aggregators (internal/obs/serve)
// use to combine an already-folded done-prefix with still-running
// shards. Callers that want order independence and the budget semantics
// use Merged.
func MergeSnapshots(shards ...*Snapshot) (*Snapshot, error) {
	var agg *Snapshot
	for _, s := range shards {
		if s == nil {
			continue
		}
		if agg == nil {
			agg = s.cloneHead()
		} else if err := agg.mergeHead(s); err != nil {
			return nil, err
		}
		agg.Spans = append(agg.Spans, s.Spans...)
		agg.Edges = append(agg.Edges, s.Edges...)
	}
	if agg == nil {
		return nil, fmt.Errorf("obs: merge of no snapshots")
	}
	return agg, nil
}

// Merged folds per-replication telemetry shards into one aggregate.
// Shards may arrive in any order from any goroutine: Add buffers them
// and folds only the consecutive run starting at replication 0, so the
// float additions (histogram and sketch sums, gauge totals) always fold
// in replication-index order and the aggregate is bit-identical no
// matter how many workers produced the shards.
//
// The fold keeps each shard's spans and edges in their compact in-memory
// form, trims them to the global budget by dropping each shard's oldest
// values, and builds Records only when a caller asks for them, after
// the trim. Memory is bounded: at most one pending shard per
// outstanding replication plus merged span and edge logs trimmed to the
// shards' MaxSpans budget.
type Merged struct {
	mu      sync.Mutex
	next    int            // next replication index to fold
	pending map[int]*shard // buffered out-of-order arrivals

	// agg holds the fold's instruments and totals (nil until shard 0
	// arrives; its Spans and Edges stay nil). The logs hold one entry
	// per folded shard, so shard i is replication i.
	agg     *Snapshot
	spans   foldLog[span]
	edges   foldLog[edge]
	trimmed uint64 // merged spans dropped by the global budget trim
}

// shard is one replication's telemetry as the merge holds it: the
// snapshot head (Spans and Edges nil) and the compact logs.
type shard struct {
	head  *Snapshot
	spans shardLog[span]
	edges shardLog[edge]
}

// NewMerged returns an empty merge.
func NewMerged() *Merged {
	return &Merged{pending: make(map[int]*shard)}
}

// Add submits one shard snapshot. Shards must carry distinct Rep indices
// starting at 0 with no gaps overall; Add folds eagerly as the run from
// 0 becomes consecutive. Every span and edge record must be one the
// telemetry of replication s.Rep emits: Add converts it back to the
// compact form and rejects a record that would not convert back to
// itself. Safe for concurrent use.
func (m *Merged) Add(s *Snapshot) error {
	if s == nil {
		return nil
	}
	sh, err := compactShard(s)
	if err != nil {
		return err
	}
	return m.add(sh)
}

// compactShard converts a snapshot to the merge's compact form. The head
// shares the snapshot's registry and exemplars, which the fold only
// reads.
func compactShard(s *Snapshot) (*shard, error) {
	head := *s
	head.Spans, head.Edges = nil, nil
	sh := &shard{head: &head}
	if len(s.Spans) > 0 {
		sh.spans.flat = make([]span, len(s.Spans))
	}
	for i := range s.Spans {
		var ok bool
		sh.spans.flat[i], ok = spanOfRecord(&s.Spans[i])
		if !ok || s.Spans[i].Rep != s.Rep {
			return nil, fmt.Errorf("obs: replication %d span record %d is not a telemetry span of that replication", s.Rep, i)
		}
	}
	if len(s.Edges) > 0 {
		sh.edges.flat = make([]edge, len(s.Edges))
	}
	for i := range s.Edges {
		var ok bool
		if sh.edges.flat[i], ok = edgeOfRecord(&s.Edges[i], s.Rep); !ok {
			return nil, fmt.Errorf("obs: replication %d edge record %d is not a telemetry edge of that replication", s.Rep, i)
		}
	}
	return sh, nil
}

// add buffers one shard and folds the consecutive run from m.next.
func (m *Merged) add(sh *shard) error {
	rep := sh.head.Rep
	m.mu.Lock()
	defer m.mu.Unlock()
	if rep < m.next || m.pending[rep] != nil {
		return fmt.Errorf("obs: duplicate shard for replication %d", rep)
	}
	m.pending[rep] = sh
	for {
		nxt, ok := m.pending[m.next]
		if !ok {
			return nil
		}
		delete(m.pending, m.next)
		if err := m.fold(nxt); err != nil {
			return err
		}
		m.next++
	}
}

// fold merges one shard into the aggregate and enforces the global span
// budget; callers hold the lock. The first shard's head is deep-copied
// so later folds never mutate a snapshot the caller still holds.
//
// The budget trim keeps, once the merged span (or edge) log exceeds
// MaxSpans, each folded shard's latest ceil(MaxSpans/shards) values, so
// a 10k-replication run retains O(MaxSpans) values total, not
// O(shards x MaxSpans). The trim depends only on the shard contents and
// the fold count — both deterministic — so the retained set is a pure
// function of the run.
func (m *Merged) fold(sh *shard) error {
	if m.agg == nil {
		m.agg = sh.head.cloneHead()
	} else if err := m.agg.mergeHead(sh.head); err != nil {
		return err
	}
	m.spans.add(sh.spans)
	m.edges.add(sh.edges)
	if budget, shards := m.agg.MaxSpans, len(m.spans.logs); budget > 0 {
		share := (budget + shards - 1) / shards
		m.trimmed += m.spans.trim(budget, share) + m.edges.trim(budget, share)
	}
	return nil
}

// shardLog is the kept part of one shard's span or edge log: the values
// from lo on of either the ring the telemetry handed over or a flat
// slice.
type shardLog[T any] struct {
	ring *ring[T] // the handed-over ring; nil when the values are in flat
	flat []T
	lo   int // first kept value
}

// held returns how many values the log's storage holds, kept or not.
func (l *shardLog[T]) held() int {
	if l.ring != nil {
		return l.ring.n
	}
	return len(l.flat)
}

// len returns how many values the log keeps.
func (l *shardLog[T]) len() int { return l.held() - l.lo }

// get returns the i-th oldest kept value.
func (l *shardLog[T]) get(i int) *T {
	if l.ring != nil {
		return l.ring.get(l.lo + i)
	}
	return &l.flat[l.lo+i]
}

// keepLatest trims the log to its latest k values and returns how many
// it dropped. A trim that leaves at most half of the storage in use
// copies the kept values into a right-sized slice, so a trimmed shard
// stops holding its whole ring alive.
func (l *shardLog[T]) keepLatest(k int) uint64 {
	n := l.len()
	if n <= k {
		return 0
	}
	l.lo += n - k
	if 2*k <= l.held() {
		kept := make([]T, k)
		for i := range kept {
			kept[i] = *l.get(i)
		}
		l.ring, l.flat, l.lo = nil, kept, 0
	}
	return uint64(n - k)
}

// foldLog is the merged span or edge log: one shardLog per folded
// shard, in fold order.
type foldLog[T any] struct {
	logs   []shardLog[T]
	n      int // values kept across every log
	widest int // no log keeps more values than this
}

func (f *foldLog[T]) add(l shardLog[T]) {
	f.logs = append(f.logs, l)
	n := l.len()
	f.n += n
	f.widest = max(f.widest, n)
}

// trim keeps every log's latest share values once more than budget
// values are kept in all, returning how many it dropped.
func (f *foldLog[T]) trim(budget, share int) uint64 {
	if f.n <= budget || f.widest <= share {
		return 0
	}
	var cut uint64
	for i := range f.logs {
		cut += f.logs[i].keepLatest(share)
	}
	f.n -= int(cut)
	f.widest = share
	return cut
}

// Shards returns how many shards have been folded so far; Pending how
// many arrived out of order and await their predecessors.
func (m *Merged) Shards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.spans.logs)
}

// Pending returns the number of buffered out-of-order shards.
func (m *Merged) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Trimmed returns how many merged spans the global budget trim dropped,
// on top of the per-shard eviction counted in sda_spans_dropped_total.
func (m *Merged) Trimmed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trimmed
}

// Snapshot returns the current aggregate (nil before shard 0 folds). The
// returned snapshot is a deep copy that shares no backing array or map
// with the fold, so callers may read it freely while more shards fold.
// Its span and edge records are built here, in one pass each.
func (m *Merged) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.agg == nil {
		return nil
	}
	s := m.agg.cloneHead()
	if n := m.spans.n; n > 0 {
		s.Spans = make([]Record, 0, n)
		vs := make([]spanFloats, n)
		m.spans.each(func(sp *span, _ int) error {
			s.Spans = append(s.Spans, sp.recordIn(&vs[len(s.Spans)]))
			return nil
		})
	}
	if n := m.edges.n; n > 0 {
		s.Edges = make([]Record, 0, n)
		ats := make([]float64, n)
		m.edges.each(func(e *edge, rep int) error {
			s.Edges = append(s.Edges, e.record(rep, &ats[len(s.Edges)]))
			return nil
		})
	}
	return s
}

// each calls fn with every kept value, in fold order, and with its
// shard's replication index, stopping at the first error.
func (f *foldLog[T]) each(fn func(v *T, rep int) error) error {
	for rep := range f.logs {
		l := &f.logs[rep]
		for j, n := 0, l.len(); j < n; j++ {
			if err := fn(l.get(j), rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders the human-readable digest of the merged telemetry —
// the text Snapshot().Summary() returns, without building a record —
// or "" before any shard folds.
func (m *Merged) Summary() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.agg == nil {
		return ""
	}
	return m.agg.summary(m.spans.n, m.edges.n)
}

// --- merged exports ----------------------------------------------------------

// The merged exports below write straight from the fold, under the lock:
// none of them copies the aggregate into a Snapshot first.

// locked runs write with the lock held, or fails with "obs: merged
// <what> before any shard folded" when nothing has folded yet.
func (m *Merged) locked(what string, write func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.agg == nil {
		return fmt.Errorf("obs: merged %s before any shard folded", what)
	}
	return write()
}

// WritePrometheus writes the merged instrument catalog in the Prometheus
// text exposition format — the same format the per-shard exposition
// uses, so the merge of one shard is byte-identical to that shard's own
// export.
func (m *Merged) WritePrometheus(w io.Writer) error {
	return m.locked("exposition", func() error { return m.agg.Registry.WritePrometheus(w) })
}

// WriteSpans writes the merged retained span log as JSONL, in
// (replication, release) order, followed by nothing — exemplars are
// exported separately by WriteExemplars.
func (m *Merged) WriteSpans(w io.Writer) error {
	return m.locked("spans", func() error { return m.writeSpans(w) })
}

// WriteEdges writes the merged causal-edge log as JSONL, in
// (replication, firing) order.
func (m *Merged) WriteEdges(w io.Writer) error {
	return m.locked("edges", func() error { return m.writeEdges(w) })
}

// WriteExemplars writes the merged exemplar selection as JSONL.
func (m *Merged) WriteExemplars(w io.Writer) error {
	return m.locked("exemplars", func() error { return m.writeExemplars(w) })
}

// writeSpans streams the kept spans as JSONL; callers hold the lock. The
// record and its float block are declared once per call, so streaming
// allocates nothing per span.
func (m *Merged) writeSpans(w io.Writer) error {
	var (
		rec Record
		v   spanFloats
		i   int
	)
	return m.spans.each(func(sp *span, _ int) error {
		rec = sp.recordIn(&v)
		if err := WriteRecord(w, rec); err != nil {
			return fmt.Errorf("obs: write merged span %d: %w", i, err)
		}
		i++
		return nil
	})
}

// writeEdges streams the kept edges as JSONL; callers hold the lock.
func (m *Merged) writeEdges(w io.Writer) error {
	var (
		rec Record
		at  float64
		i   int
	)
	return m.edges.each(func(e *edge, rep int) error {
		rec = e.record(rep, &at)
		if err := WriteRecord(w, rec); err != nil {
			return fmt.Errorf("obs: write merged edge %d: %w", i, err)
		}
		i++
		return nil
	})
}

// writeExemplars writes the merged exemplars; callers hold the lock.
func (m *Merged) writeExemplars(w io.Writer) error {
	return writeRecords(w, m.agg.Exemplars.Records(), "merged exemplar")
}

// writeRecords writes recs as JSONL, naming the failing record by what
// and index.
func writeRecords(w io.Writer, recs []Record, what string) error {
	for i := range recs {
		if err := WriteRecord(w, recs[i]); err != nil {
			return fmt.Errorf("obs: write %s %d: %w", what, i, err)
		}
	}
	return nil
}

// SpansForAnalysis returns the union of the retained span log and the
// exemplar selection, deduplicated on (rep, id) and ordered by
// (rep, id) — the input sdablame and the /blame endpoint analyze. Under
// a tight budget the exemplars guarantee each kind's worst and latest
// spans are present. Where a (rep, id) repeats, the first span-log
// record wins over later ones and over the exemplars.
//
// The span log of a merge or a shard is already in (rep, id) order, so
// it merges with the few sorted exemplars in one linear pass; an
// unsorted log is sorted first.
func (s *Snapshot) SpansForAnalysis() []Record {
	spans := s.Spans
	if !recordsSorted(spans) {
		spans = append([]Record(nil), spans...)
		sort.SliceStable(spans, func(i, j int) bool { return recordLess(&spans[i], &spans[j]) })
	}
	ex := s.Exemplars.Records()
	sort.SliceStable(ex, func(i, j int) bool { return recordLess(&ex[i], &ex[j]) })
	out := make([]Record, 0, len(spans)+len(ex))
	i, j := 0, 0
	for i < len(spans) || j < len(ex) {
		var rec *Record
		switch {
		case j == len(ex) || i < len(spans) && !recordLess(&ex[j], &spans[i]):
			rec = &spans[i]
			i++
		default:
			rec = &ex[j]
			j++
		}
		if n := len(out); n > 0 && out[n-1].Rep == rec.Rep && out[n-1].ID == rec.ID {
			continue
		}
		out = append(out, *rec)
	}
	return out
}

// recordLess orders records by (rep, id).
func recordLess(a, b *Record) bool {
	if a.Rep != b.Rep {
		return a.Rep < b.Rep
	}
	return a.ID < b.ID
}

// recordsSorted reports whether recs is in non-decreasing (rep, id)
// order.
func recordsSorted(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recordLess(&recs[i], &recs[i-1]) {
			return false
		}
	}
	return true
}

// GlobalCounts reads the merged outcome counters: resolved and missed
// global tasks across every folded shard — exact under any retention
// budget.
func (s *Snapshot) GlobalCounts() (resolved, missed int) {
	return int(s.Registry.counter("sda_outcomes_total", `class="global"`)),
		int(s.Registry.counter("sda_missed_total", `class="global"`))
}

// Summary renders a human-readable digest of the merged telemetry,
// mirroring Telemetry.Summary with sketch-backed quantiles.
func (s *Snapshot) Summary() string { return s.summary(len(s.Spans), len(s.Edges)) }

// summary renders Summary for a snapshot retaining spans spans and
// edges edges.
func (s *Snapshot) summary(spans, edges int) string {
	rs := s.Registry
	var b strings.Builder
	if s.Rep < 0 {
		fmt.Fprintf(&b, "merged       cross-replication aggregate\n")
	}
	fmt.Fprintf(&b, "scheduling   enqueue %d  start %d  finish %d  abort %d  preempt %d\n",
		rs.counter("sda_sched_enqueues_total", ""), rs.counter("sda_sched_starts_total", ""),
		rs.counter("sda_sched_finishes_total", ""), rs.counter("sda_sched_aborts_total", ""),
		rs.counter("sda_sched_preempts_total", ""))
	fmt.Fprintf(&b, "releases     %d (%d resubmits), %g global task(s) in flight at end\n",
		rs.counter("sda_releases_total", ""), rs.counter("sda_resubmits_total", ""),
		rs.gauge("sda_inflight_globals", ""))
	fmt.Fprintf(&b, "outcomes     local %d (missed %d)  global %d (missed %d)  subtask %d (missed %d)\n",
		rs.counter("sda_outcomes_total", `class="local"`), rs.counter("sda_missed_total", `class="local"`),
		rs.counter("sda_outcomes_total", `class="global"`), rs.counter("sda_missed_total", `class="global"`),
		rs.counter("sda_outcomes_total", `class="subtask"`), rs.counter("sda_missed_total", `class="subtask"`))
	fmt.Fprintf(&b, "spans        %d recorded, %d retained, %d dropped, %d open at horizon\n",
		s.TotalSpans, spans, rs.counter("sda_spans_dropped_total", ""), s.OpenSpans)
	fmt.Fprintf(&b, "edges        %d retained, %d dropped\n", edges,
		rs.counter("sda_edges_dropped_total", `reason="unspanned"`)+
			rs.counter("sda_edges_dropped_total", `reason="evicted"`))
	quant := func(label, name, note string) {
		sk := rs.sketch(name)
		if sk == nil || sk.Count() == 0 {
			return
		}
		q := sk.Quantiles(0.5, 0.95, 0.99)
		fmt.Fprintf(&b, "%s mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f %s\n",
			label, sk.Mean(), q[0], q[1], q[2], note)
	}
	quant("slack       ", "sda_slack_quantiles", "(assigned, per release)")
	quant("lateness    ", "sda_lateness_quantiles", "(per resolved span)")
	quant("latency     ", "sda_latency_quantiles", "(span duration)")
	if s.SamplerTicks > 0 {
		fmt.Fprintf(&b, "samples      %d ticks across shards\n", s.SamplerTicks)
	}
	return b.String()
}

// dashboardQuantiles is the grid the merged dashboard renders as bands.
var dashboardQuantiles = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// Dashboard renders the merged telemetry as one SVG document: one panel
// per populated quantile sketch (slack, lateness, latency) showing the
// merged quantile band across every replication.
func (s *Snapshot) Dashboard() (string, error) {
	var panels []svgplot.Chart
	panel := func(name, title, ylabel string) {
		sk := s.Registry.sketch(name)
		if sk == nil || sk.Count() == 0 {
			return
		}
		labels := make([]string, len(dashboardQuantiles))
		rows := make([][]float64, len(dashboardQuantiles))
		for i, q := range dashboardQuantiles {
			labels[i] = fmt.Sprintf("p%g", q*100)
			rows[i] = []float64{sk.Quantile(q)}
		}
		panels = append(panels, svgplot.Chart{
			Title:  title,
			XLabel: "quantile",
			YLabel: ylabel,
			Series: []string{"merged"},
			Labels: labels,
			Y:      rows,
		})
	}
	panel("sda_slack_quantiles", "assigned slack quantile band (merged)", "slack")
	panel("sda_lateness_quantiles", "lateness quantile band (merged)", "lateness")
	panel("sda_latency_quantiles", "span latency quantile band (merged)", "duration")
	if len(panels) == 0 {
		return "", fmt.Errorf("obs: no merged telemetry to plot")
	}
	return svgplot.Compose(panels...)
}

// Export file names specific to merged output; the shared names in
// export.go (MetricsFile, SpansFile, ...) are reused where the content
// is the same shape.
const ExemplarsFile = "exemplars.jsonl"

// ExportDir writes the merged telemetry export into dir (created if
// missing): the merged span log, edge log and exemplars as JSONL, the
// merged instrument catalog in Prometheus format, the quantile-band SVG
// dashboard, and the human-readable summary. Every file is written from
// the fold under one hold of the lock, so all of them show the same
// shards. It returns the paths written.
func (m *Merged) ExportDir(dir string) ([]string, error) {
	var paths []string
	err := m.locked("export", func() error {
		a := m.agg
		files := []exportFile{
			{SpansFile, m.writeSpans},
			{EdgesFile, m.writeEdges},
			{ExemplarsFile, m.writeExemplars},
			{MetricsFile, a.Registry.WritePrometheus},
		}
		if svg, err := a.Dashboard(); err == nil {
			files = append(files, exportFile{DashboardFile, writeString(svg)})
		}
		files = append(files, exportFile{SummaryFile, writeString(a.summary(m.spans.n, m.edges.n))})
		var err error
		paths, err = exportFiles(dir, files)
		return err
	})
	return paths, err
}
