package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/par"
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

	// Registry holds every instrument: counters, gauges-at-end and
	// quantile sketches.
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
// Snapshot. tail limits how many of the latest retained spans and edges
// are copied (<= 0 copies both whole rings); a live reader passes its
// display ring size so a snapshot costs O(tail). Must run on the
// goroutine driving the simulation (it reads func-backed gauges).
func (t *Telemetry) Snapshot(tail int) *Snapshot {
	s := t.head()
	s.Spans = t.SpansTail(tail)
	s.Edges = t.edgesTail(tail)
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

// Merged folds per-replication telemetry shards into one aggregate.
// Shards may arrive in any order from any goroutine (Telemetry.MergeInto
// hands them over): the merge buffers them and folds only the
// consecutive run starting at replication 0, so the float additions
// (sketch sums, gauge totals) always fold in
// replication-index order and the aggregate is bit-identical no matter
// how many workers produced the shards.
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
// Its span and edge records are built here, in chunks of
// par.EncodeChunk on every core, each record into its own index.
func (m *Merged) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.agg == nil {
		return nil
	}
	s := m.agg.cloneHead()
	ns, ne := m.spans.n, m.edges.n
	var (
		vs  []spanFloats
		ats []float64
	)
	if ns > 0 {
		s.Spans, vs = make([]Record, ns), make([]spanFloats, ns)
	}
	if ne > 0 {
		s.Edges, ats = make([]Record, ne), make([]float64, ne)
	}
	spanChunks := chunks(ns)
	par.Map(0, spanChunks+chunks(ne), func(c int) error {
		if c < spanChunks {
			lo := c * par.EncodeChunk
			return m.spans.each(lo, min(lo+par.EncodeChunk, ns), func(sp *span, _, i int) error {
				s.Spans[i] = sp.recordIn(&vs[i])
				return nil
			})
		}
		lo := (c - spanChunks) * par.EncodeChunk
		return m.edges.each(lo, min(lo+par.EncodeChunk, ne), func(e *edge, rep, i int) error {
			s.Edges[i] = e.record(rep, &ats[i])
			return nil
		})
	})
	return s
}

// chunks returns how many par.EncodeChunk chunks n records fill.
func chunks(n int) int { return (n + par.EncodeChunk - 1) / par.EncodeChunk }

// each calls fn with every kept value whose index in the merged log is
// in [from, to), in fold order, with its shard's replication index and
// its merged index, stopping at the first error.
func (f *foldLog[T]) each(from, to int, fn func(v *T, rep, i int) error) error {
	base := 0 // merged index of the current log's first kept value
	for rep := range f.logs {
		l := &f.logs[rep]
		n := l.len()
		for j := max(from-base, 0); j < min(n, to-base); j++ {
			if err := fn(l.get(j), rep, base+j); err != nil {
				return err
			}
		}
		if base += n; base >= to {
			return nil
		}
	}
	return nil
}

// View renders the run's telemetry for a reader that does not wait for
// the fold to finish: the fold's instruments and totals merged with the
// head of each live shard, in the order given, and the latest tail span
// and edge records of the folded logs followed by the live shards' own.
// live holds snapshots of replications still running or not yet folded,
// in replication order; those the fold already holds are skipped, and
// none is modified. Only the fold values inside the tail become Records.
// View returns the view (Rep = -1; nil when nothing has folded and no
// live shard is left) and how many shards had folded when it was taken.
func (m *Merged) View(live []*Snapshot, tail int) (*Snapshot, int, error) {
	tail = max(tail, 0)
	m.mu.Lock()
	defer m.mu.Unlock()
	folded := len(m.spans.logs)
	var v *Snapshot
	if m.agg != nil {
		v = m.agg.cloneHead()
	}
	var spans, edges []Record // the live shards' logs, in order
	for _, s := range live {
		if s.Rep < folded {
			continue
		}
		if v == nil {
			v = s.cloneHead()
		} else if err := v.mergeHead(s); err != nil {
			return nil, folded, err
		}
		spans = append(spans, s.Spans...)
		edges = append(edges, s.Edges...)
	}
	if v == nil {
		return nil, folded, nil
	}
	vs := make([]spanFloats, min(tail, m.spans.n))
	v.Spans = logTail(&m.spans, spans, tail, func(sp *span, _, i int) Record { return sp.recordIn(&vs[i]) })
	ats := make([]float64, min(tail, m.edges.n))
	v.Edges = logTail(&m.edges, edges, tail, func(e *edge, rep, i int) Record { return e.record(rep, &ats[i]) })
	return v, folded, nil
}

// logTail returns the latest tail values of the fold log f followed by
// the records live, at most tail records in all. Only the fold values it
// keeps are rendered, the i-th of them by record.
func logTail[T any](f *foldLog[T], live []Record, tail int, record func(v *T, rep, i int) Record) []Record {
	live = live[max(len(live)-tail, 0):]
	k := min(tail-len(live), f.n)
	out := make([]Record, 0, k+len(live))
	f.each(f.n-k, f.n, func(v *T, rep, _ int) error {
		out = append(out, record(v, rep, len(out)))
		return nil
	})
	return append(out, live...)
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
// text exposition format.
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

// writeSpans streams the kept spans as JSONL, encoded on every core;
// callers hold the lock.
func (m *Merged) writeSpans(w io.Writer) error {
	return encodeLines(w, m.spans.n, "merged span", func(dst []byte, lo, hi int) ([]byte, error) {
		var v spanFloats
		err := m.spans.each(lo, hi, func(sp *span, _, i int) error {
			rec := sp.recordIn(&v)
			var err error
			dst, err = appendLine(dst, &rec, "merged span", i)
			return err
		})
		return dst, err
	})
}

// writeEdges streams the kept edges as JSONL, encoded on every core;
// callers hold the lock.
func (m *Merged) writeEdges(w io.Writer) error {
	return encodeLines(w, m.edges.n, "merged edge", func(dst []byte, lo, hi int) ([]byte, error) {
		var at float64
		err := m.edges.each(lo, hi, func(e *edge, rep, i int) error {
			rec := e.record(rep, &at)
			var err error
			dst, err = appendLine(dst, &rec, "merged edge", i)
			return err
		})
		return dst, err
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

// SpansForAnalysis returns AnalysisInput over the snapshot's retained
// span log and its exemplar selection: the input of the /blame endpoint
// and of the blame report in every telemetry bundle.
func (s *Snapshot) SpansForAnalysis() []Record {
	return AnalysisInput(s.Spans, s.Exemplars.Records())
}

// AnalysisInput returns the union of a span log and an exemplar
// selection, deduplicated on (rep, id) and ordered by (rep, id) — the
// input attribution analyzes. Under a tight budget the exemplars
// guarantee each kind's worst and latest spans are present. Where a
// (rep, id) repeats, the first span-log record wins over later ones and
// over the exemplars. Neither argument is modified.
//
// The span log of a merge or a shard is already in (rep, id) order, so
// it merges with the few sorted exemplars in one linear pass; an
// unsorted log is sorted first.
func AnalysisInput(spans, exemplars []Record) []Record {
	spans, ex := sortedRecords(spans), sortedRecords(exemplars)
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

// sortedRecords returns recs if it is in (rep, id) order, else a copy
// stably sorted into that order.
func sortedRecords(recs []Record) []Record {
	if recordsSorted(recs) {
		return recs
	}
	recs = append([]Record(nil), recs...)
	sort.SliceStable(recs, func(i, j int) bool { return recordLess(&recs[i], &recs[j]) })
	return recs
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

// Summary renders a human-readable digest of the merged telemetry with
// sketch-backed quantiles.
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
