package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// This file keeps the record-based fold that Merged replaced, as the
// differential reference for FuzzMergedParity: every shard arrives as
// materialized Records, the fold clones and appends them, and the budget
// trim keeps each replication run's latest records. Merged must export
// exactly what it exports.

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

// RefMerged is the record-based fold, exported to the obs_test package.
// It is not safe for concurrent use.
type RefMerged struct {
	next    int
	pending map[int]*Snapshot
	agg     *Snapshot
	shards  int
	trimmed uint64
}

// NewRefMerged returns an empty reference fold.
func NewRefMerged() *RefMerged { return &RefMerged{pending: make(map[int]*Snapshot)} }

// Add buffers s and folds the consecutive run from replication 0.
func (m *RefMerged) Add(s *Snapshot) error {
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
		m.shards++
		if m.agg == nil {
			m.agg = nxt.clone()
			m.agg.Rep = -1
		} else if err := m.agg.accumulate(nxt); err != nil {
			return err
		}
		if a := m.agg; a.MaxSpans > 0 {
			share := (a.MaxSpans + m.shards - 1) / m.shards
			var cut uint64
			a.Spans, cut = trimRecords(a.Spans, a.MaxSpans, share)
			m.trimmed += cut
			a.Edges, cut = trimRecords(a.Edges, a.MaxSpans, share)
			m.trimmed += cut
		}
		m.next++
	}
}

// Snapshot returns a deep copy of the fold (nil before shard 0 folds).
func (m *RefMerged) Snapshot() *Snapshot {
	if m.agg == nil {
		return nil
	}
	return m.agg.clone()
}

// Trimmed returns how many records the budget trim dropped.
func (m *RefMerged) Trimmed() uint64 { return m.trimmed }

// Shards returns how many shards have folded.
func (m *RefMerged) Shards() int { return m.shards }

// ExportDir writes the reference export bundle from one snapshot of the
// fold, as Merged.ExportDir did.
func (m *RefMerged) ExportDir(dir string) ([]string, error) {
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

// RefSpansForAnalysis is the map-based SpansForAnalysis: the first
// record seen for a (rep, id), spans before exemplars, sorted.
func RefSpansForAnalysis(s *Snapshot) []Record {
	type key struct {
		rep int
		id  uint64
	}
	seen := make(map[key]bool, len(s.Spans))
	out := make([]Record, 0, len(s.Spans))
	for _, rec := range append(append([]Record(nil), s.Spans...), s.Exemplars.Records()...) {
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

// CheckRoundTrip converts every span and edge the telemetry holds — its
// ring, its exemplars and the spans evicted while open — to a Record and
// back, and reports the first that does not come back unchanged.
func CheckRoundTrip(t *Telemetry) error {
	check := func(sp *span, where string) error {
		rec := sp.record()
		back, ok := spanOfRecord(&rec)
		if !ok || back != *sp {
			return fmt.Errorf("%s span %d does not round-trip: %+v -> %+v", where, sp.id, *sp, back)
		}
		return nil
	}
	for i := 0; i < t.spans.n; i++ {
		if err := check(t.spans.get(i), "ring"); err != nil {
			return err
		}
	}
	for _, sp := range t.evicted {
		if err := check(&sp, "evicted"); err != nil {
			return err
		}
	}
	for kind := range t.ex.latest {
		for _, l := range []*exemplarList{&t.ex.latest[kind], &t.ex.worst[kind]} {
			for _, slot := range l.order {
				if err := check(&l.slots[slot], "exemplar"); err != nil {
					return err
				}
			}
		}
	}
	var at float64
	for i := 0; i < t.edges.n; i++ {
		e := t.edges.get(i)
		rec := e.record(t.rep, &at)
		if back, ok := edgeOfRecord(&rec, t.rep); !ok || back != *e {
			return fmt.Errorf("edge %d does not round-trip: %+v -> %+v", i, *e, back)
		}
	}
	return nil
}

// spanOfRecord is the inverse of recordIn: it rebuilds the span a span
// Record was rendered from, reporting false when rec is not one recordIn
// renders.
func spanOfRecord(rec *Record) (span, bool) {
	kind := spanKind(0)
	for kind < numSpanKinds && spanKindNames[kind] != rec.Kind {
		kind++
	}
	if kind == numSpanKinds || rec.Start == nil || rec.VDL == nil || rec.Slack == nil ||
		rec.Exec == nil || rec.Pex == nil {
		return span{}, false
	}
	sp := span{
		id:     rec.ID,
		root:   rec.Root,
		task:   rec.Task,
		start:  *rec.Start,
		vdl:    *rec.VDL,
		slack:  *rec.Slack,
		exec:   *rec.Exec,
		pex:    *rec.Pex,
		rep:    int32(rec.Rep),
		node:   int32(rec.Node),
		depth:  int32(rec.Depth),
		width:  int32(rec.Width),
		kind:   kind,
		open:   rec.End == nil,
		hasRDL: rec.RealDL != nil,
		missed: rec.Missed,
		abort:  rec.Aborted,
		boost:  rec.Boost,
	}
	if sp.hasRDL {
		sp.realDL = *rec.RealDL
	}
	if !sp.open {
		sp.end = *rec.End
	}
	var v spanFloats
	back := sp.recordIn(&v)
	return sp, sameRecord(&back, rec)
}

// edgeOfRecord is the inverse of edge.record for replication rep,
// reporting false when rec is not one edge.record renders.
func edgeOfRecord(rec *Record, rep int) (edge, bool) {
	if rec.At == nil {
		return edge{}, false
	}
	e := edge{kind: rec.Kind, label: rec.Task, from: rec.From, to: rec.ID, root: rec.Root, at: *rec.At}
	var at float64
	back := e.record(rep, &at)
	return e, sameRecord(&back, rec)
}

// sameRecord reports whether a and b are equal field by field, float
// fields by presence and bit pattern. TestSameRecordCoversEveryField
// fails when Record gains a field this does not compare.
func sameRecord(a, b *Record) bool {
	if a.Schema != b.Schema || a.Type != b.Type || a.Kind != b.Kind || a.Task != b.Task ||
		a.Node != b.Node || a.ID != b.ID || a.Root != b.Root || a.Rep != b.Rep || a.From != b.From ||
		a.Missed != b.Missed || a.Aborted != b.Aborted || a.Boost != b.Boost ||
		a.Depth != b.Depth || a.Width != b.Width {
		return false
	}
	fa, fb := recordFloats(a), recordFloats(b)
	for i := range fa {
		if (fa[i] == nil) != (fb[i] == nil) ||
			fa[i] != nil && math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
	}
	return true
}
