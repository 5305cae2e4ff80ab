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
	return &Snapshot{
		Rep:          t.rep,
		Registry:     t.reg.Snapshot(),
		Spans:        t.SpansTail(tailSpans),
		Edges:        t.Edges(),
		Exemplars:    t.ex.snapshot(),
		OpenSpans:    len(t.open) + len(t.evicted),
		Retained:     t.rlen,
		TotalSpans:   t.nextID,
		SamplerTicks: t.Ticks(),
		MaxSpans:     t.opts.MaxSpans,
	}
}

// clone deep-copies the snapshot so folding into the copy cannot mutate
// a snapshot the caller still holds.
func (s *Snapshot) clone() *Snapshot {
	cp := *s
	cp.Registry = s.Registry.clone()
	cp.Spans = append([]Record(nil), s.Spans...)
	cp.Edges = append([]Record(nil), s.Edges...)
	cp.Exemplars = s.Exemplars.clone()
	return &cp
}

// accumulate folds one more shard into the aggregate in place. The shard
// is only read, never retained or mutated.
func (a *Snapshot) accumulate(s *Snapshot) error {
	if err := a.Registry.Merge(s.Registry); err != nil {
		return err
	}
	a.Spans = append(a.Spans, s.Spans...)
	a.Edges = append(a.Edges, s.Edges...)
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
			agg = s.clone()
			agg.Rep = -1
			continue
		}
		if err := agg.accumulate(s); err != nil {
			return nil, err
		}
	}
	if agg == nil {
		return nil, fmt.Errorf("obs: merge of no snapshots")
	}
	return agg, nil
}

// Merged folds per-replication telemetry Snapshots into one aggregate.
// Shards may arrive in any order from any goroutine: Add buffers them
// and folds only the consecutive run starting at replication 0, so the
// float additions (histogram and sketch sums, gauge totals) always fold
// in replication-index order and the aggregate is bit-identical no
// matter how many workers produced the shards. Memory is bounded: at
// most one pending snapshot per outstanding replication plus a merged
// span set trimmed to the shards' MaxSpans budget.
type Merged struct {
	mu      sync.Mutex
	next    int               // next replication index to fold
	pending map[int]*Snapshot // buffered out-of-order arrivals

	agg     *Snapshot // the fold; nil until shard 0 arrives
	shards  int       // how many shards have been folded
	trimmed uint64    // merged spans dropped by the global budget trim
}

// NewMerged returns an empty merge.
func NewMerged() *Merged {
	return &Merged{pending: make(map[int]*Snapshot)}
}

// Add submits one shard. Shards must carry distinct Rep indices starting
// at 0 with no gaps overall; Add folds eagerly as the run from 0 becomes
// consecutive. Safe for concurrent use.
func (m *Merged) Add(s *Snapshot) error {
	if s == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.Rep < m.next || m.pending[s.Rep] != nil {
		return fmt.Errorf("obs: duplicate shard for replication %d", s.Rep)
	}
	m.pending[s.Rep] = s
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

// fold merges one shard into the aggregate; callers hold the lock. The
// first shard is deep-copied so later folds never mutate a snapshot the
// caller still holds.
func (m *Merged) fold(s *Snapshot) error {
	m.shards++
	if m.agg == nil {
		m.agg = s.clone()
		m.agg.Rep = -1
	} else if err := m.agg.accumulate(s); err != nil {
		return err
	}
	m.trimSpans()
	return nil
}

// trimSpans enforces the global span budget over the merged span and
// edge logs: each folded shard keeps an equal share of the budget (its
// latest records), so a 10k-replication run retains O(MaxSpans) records
// total, not O(shards x MaxSpans). The trim depends only on the shard
// contents and the fold count — both deterministic — so the retained set
// is a pure function of the run.
func (m *Merged) trimSpans() {
	a := m.agg
	if a.MaxSpans <= 0 {
		return
	}
	share := (a.MaxSpans + m.shards - 1) / m.shards
	var cut uint64
	a.Spans, cut = trimRecords(a.Spans, a.MaxSpans, share)
	m.trimmed += cut
	a.Edges, cut = trimRecords(a.Edges, a.MaxSpans, share)
	m.trimmed += cut
}

// trimRecords keeps the latest share records of every replication run in
// recs (which is in fold order, each run already ordered) once the total
// exceeds budget, returning the kept slice and how many were dropped.
func trimRecords(recs []Record, budget, share int) ([]Record, uint64) {
	if len(recs) <= budget {
		return recs, 0
	}
	var cut uint64
	kept := recs[:0]
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].Rep == recs[i].Rep {
			j++
		}
		runStart := i
		if j-i > share {
			runStart = j - share
		}
		cut += uint64(runStart - i)
		kept = append(kept, recs[runStart:j]...)
		i = j
	}
	return kept, cut
}

// Shards returns how many shards have been folded so far; Pending how
// many arrived out of order and await their predecessors.
func (m *Merged) Shards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shards
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
func (m *Merged) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.agg == nil {
		return nil
	}
	return m.agg.clone()
}

// --- merged exports ----------------------------------------------------------

// WritePrometheus writes the merged instrument catalog in the Prometheus
// text exposition format — the same format the per-shard exposition
// uses, so the merge of one shard is byte-identical to that shard's own
// export.
func (m *Merged) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	if s == nil {
		return fmt.Errorf("obs: merged exposition before any shard folded")
	}
	return s.Registry.WritePrometheus(w)
}

// WriteSpans writes the merged retained span log as JSONL, in
// (replication, release) order, followed by nothing — exemplars are
// exported separately by WriteExemplars.
func (m *Merged) WriteSpans(w io.Writer) error {
	s := m.Snapshot()
	if s == nil {
		return fmt.Errorf("obs: merged spans before any shard folded")
	}
	return writeRecords(w, s.Spans, "merged span")
}

// WriteEdges writes the merged causal-edge log as JSONL, in
// (replication, firing) order.
func (m *Merged) WriteEdges(w io.Writer) error {
	s := m.Snapshot()
	if s == nil {
		return fmt.Errorf("obs: merged edges before any shard folded")
	}
	return writeRecords(w, s.Edges, "merged edge")
}

// WriteExemplars writes the merged exemplar selection as JSONL.
func (m *Merged) WriteExemplars(w io.Writer) error {
	s := m.Snapshot()
	if s == nil {
		return fmt.Errorf("obs: merged exemplars before any shard folded")
	}
	return writeRecords(w, s.Exemplars.Records(), "merged exemplar")
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
// spans are present.
func (s *Snapshot) SpansForAnalysis() []Record {
	type key struct {
		rep int
		id  uint64
	}
	seen := make(map[key]bool, len(s.Spans))
	out := make([]Record, 0, len(s.Spans))
	for _, rec := range s.Spans {
		k := key{rec.Rep, rec.ID}
		if !seen[k] {
			seen[k] = true
			out = append(out, rec)
		}
	}
	for _, rec := range s.Exemplars.Records() {
		k := key{rec.Rep, rec.ID}
		if !seen[k] {
			seen[k] = true
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rep != out[j].Rep {
			return out[i].Rep < out[j].Rep
		}
		return out[i].ID < out[j].ID
	})
	return out
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
func (s *Snapshot) Summary() string {
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
		s.TotalSpans, len(s.Spans), rs.counter("sda_spans_dropped_total", ""), s.OpenSpans)
	fmt.Fprintf(&b, "edges        %d retained, %d dropped\n", len(s.Edges),
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
// dashboard, and the human-readable summary. Every file comes from one
// Snapshot of the fold. It returns the paths written.
func (m *Merged) ExportDir(dir string) ([]string, error) {
	s := m.Snapshot()
	if s == nil {
		return nil, fmt.Errorf("obs: merged export before any shard folded")
	}
	files := []exportFile{
		{SpansFile, func(w io.Writer) error { return writeRecords(w, s.Spans, "merged span") }},
		{EdgesFile, func(w io.Writer) error { return writeRecords(w, s.Edges, "merged edge") }},
		{ExemplarsFile, func(w io.Writer) error { return writeRecords(w, s.Exemplars.Records(), "merged exemplar") }},
		{MetricsFile, s.Registry.WritePrometheus},
	}
	if svg, err := s.Dashboard(); err == nil {
		files = append(files, exportFile{DashboardFile, writeString(svg)})
	}
	files = append(files, exportFile{SummaryFile, writeString(s.Summary())})
	return exportFiles(dir, files)
}
