package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/obs/jsonenc"
	"repro/internal/par"
)

// JSONL schema versions. Version 1 is the original (unversioned) format:
// no schema field, no exec/pex, and aborted spans carried a lateness.
// Version 2 adds the schema marker, the realized/predicted work fields
// (Exec/Pex), and restricts Lateness to finished spans: an abort instant
// is a withdrawal, not a completion, so "end - deadline" is not a
// lateness there (attribution treats such spans as censored instead).
// Version 3 adds causal-edge records (Type "edge") and the From field
// linking an edge's source span; span records are unchanged, so a v2
// reader only breaks on streams that actually contain edges.
const (
	SchemaV1      = 1
	SchemaV2      = 2
	SchemaVersion = 3
)

// Record is one line of the JSONL telemetry log — the schema shared by
// task-lifecycle spans (Type "span", written by Merged.WriteSpans) and
// point scheduling events (Type "event", written by sdatrace -jsonl).
// All times are simulated instants in abstract time units; wall clock
// never appears, so two identical runs serialize to identical bytes.
//
// Span records: Start is the release instant, End the finish/abort
// instant (absent while a span is still open at the horizon). VDL is the
// virtual deadline assigned at release, RealDL the true deadline for
// root/local spans, Slack the assigned slack at release (VDL - Start -
// predicted work), Exec/Pex the realized and predicted critical-path work
// of the released unit, and Lateness = End minus the deadline the unit is
// judged by (VDL for stage/subtask spans, RealDL for root and local
// spans); negative lateness means an early finish. Lateness is present
// exactly on finished spans: open spans have no End, and aborted spans
// keep their End (the abort instant) but no Lateness.
//
// Event records: At is the event instant and Kind one of
// enqueue/start/finish/abort/preempt.
//
// Edge records (Type "edge"): one causal edge of the precedence
// protocol, pointing From the span id of the cause to ID, the span id of
// the effect. Kind is parent (structural release), pred
// (predecessor-finish release), retry (local-abort resubmission), abort
// (deadline cascade) or inject (chaos-burst parent); At is the instant
// the edge fired, Task the effect task's name, Root the owning global
// root span. The trace-tree assembler folds edges and spans into causal
// timelines.
type Record struct {
	Schema int    `json:"schema,omitempty"` // SchemaVersion; 0 on decode = v1 input
	Type   string `json:"type"`             // "span" | "event" | "edge"
	Kind   string `json:"kind"`             // span: local|global|stage|subtask; event: enqueue|...; edge: parent|pred|retry|abort|inject
	Task   string `json:"task"`             // task name (or generated label)
	Node   int    `json:"node"`             // execution node; -1 for composite stages
	ID     uint64 `json:"id,omitempty"`     // span id, unique per replication, in release order
	Root   uint64 `json:"root,omitempty"`   // id of the owning global root span
	Rep    int    `json:"rep,omitempty"`    // replication index (merged multi-rep logs)
	From   uint64 `json:"from,omitempty"`   // edge records: span id of the causing span

	Start    *float64 `json:"start,omitempty"`
	End      *float64 `json:"end,omitempty"`
	At       *float64 `json:"at,omitempty"` // event records only
	VDL      *float64 `json:"vdl,omitempty"`
	RealDL   *float64 `json:"real_dl,omitempty"`
	Slack    *float64 `json:"slack,omitempty"`
	Exec     *float64 `json:"exec,omitempty"` // realized critical-path work at release
	Pex      *float64 `json:"pex,omitempty"`  // predicted critical-path work at release
	Lateness *float64 `json:"lateness,omitempty"`

	Missed  bool `json:"missed,omitempty"`
	Aborted bool `json:"aborted,omitempty"`
	Boost   bool `json:"boost,omitempty"`

	// DAG shape, set on the root span of a precedence-DAG global task:
	// Depth is the longest chain length and Width the largest antichain
	// per level. Tree globals leave both zero.
	Depth int `json:"depth,omitempty"`
	Width int `json:"width,omitempty"`
}

// F wraps a float for an optional Record field.
func F(v float64) *float64 { return &v }

// WriteRecord writes one Record as a JSON line, stamping the current
// schema version when the caller left Schema zero. The line is encoded
// by AppendRecord into a pooled buffer, so a stream of calls allocates
// nothing per record.
func WriteRecord(w io.Writer, rec Record) error {
	if rec.Schema == 0 {
		rec.Schema = SchemaVersion
	}
	bp := lineBufs.Get().(*[]byte)
	b, err := AppendRecord((*bp)[:0], &rec)
	if err == nil {
		b = append(b, '\n')
		_, err = w.Write(b)
	}
	*bp = b
	lineBufs.Put(bp)
	return err
}

// lineBufs recycles WriteRecord's line buffers.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// recordFloatKeys are the JSON keys of Record's optional float fields,
// in field order; recordFloats lists the fields in the same order.
var recordFloatKeys = [...]string{
	`,"start":`, `,"end":`, `,"at":`, `,"vdl":`, `,"real_dl":`,
	`,"slack":`, `,"exec":`, `,"pex":`, `,"lateness":`,
}

func recordFloats(rec *Record) [len(recordFloatKeys)]*float64 {
	return [...]*float64{
		rec.Start, rec.End, rec.At, rec.VDL, rec.RealDL,
		rec.Slack, rec.Exec, rec.Pex, rec.Lateness,
	}
}

// AppendRecord appends the JSON encoding of rec to dst: byte for byte
// what json.Marshal(rec) writes, field order, omitempty rules, string
// escaping and float formatting included, but without reflection. Like
// json.Marshal it fails on a NaN or infinite float field; dst is then
// returned at its original length. AppendRecord does not stamp the
// schema version (WriteRecord does).
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, '{')
	if rec.Schema != 0 {
		dst = append(dst, `"schema":`...)
		dst = strconv.AppendInt(dst, int64(rec.Schema), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"type":`...)
	dst = jsonenc.String(dst, rec.Type)
	dst = append(dst, `,"kind":`...)
	dst = jsonenc.String(dst, rec.Kind)
	dst = append(dst, `,"task":`...)
	dst = jsonenc.String(dst, rec.Task)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(rec.Node), 10)
	if rec.ID != 0 {
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendUint(dst, rec.ID, 10)
	}
	if rec.Root != 0 {
		dst = append(dst, `,"root":`...)
		dst = strconv.AppendUint(dst, rec.Root, 10)
	}
	if rec.Rep != 0 {
		dst = append(dst, `,"rep":`...)
		dst = strconv.AppendInt(dst, int64(rec.Rep), 10)
	}
	if rec.From != 0 {
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendUint(dst, rec.From, 10)
	}
	// A float with the bits of the previous one (vdl and real_dl, exec and
	// pex on a span without estimation error) copies that one's bytes,
	// dst[prevAt:prevEnd], instead of formatting them again.
	var prev uint64
	prevAt, prevEnd := 0, 0
	for i, v := range recordFloats(rec) {
		if v == nil {
			continue
		}
		dst = append(dst, recordFloatKeys[i]...)
		bits := math.Float64bits(*v)
		if prevEnd > 0 && bits == prev {
			dst = append(dst, dst[prevAt:prevEnd]...)
			continue
		}
		prev, prevAt = bits, len(dst)
		var err error
		if dst, err = jsonenc.Float(dst, *v); err != nil {
			return dst[:mark], fmt.Errorf("obs: encode record: %w", err)
		}
		prevEnd = len(dst)
	}
	if rec.Missed {
		dst = append(dst, `,"missed":true`...)
	}
	if rec.Aborted {
		dst = append(dst, `,"aborted":true`...)
	}
	if rec.Boost {
		dst = append(dst, `,"boost":true`...)
	}
	if rec.Depth != 0 {
		dst = append(dst, `,"depth":`...)
		dst = strconv.AppendInt(dst, int64(rec.Depth), 10)
	}
	if rec.Width != 0 {
		dst = append(dst, `,"width":`...)
		dst = strconv.AppendInt(dst, int64(rec.Width), 10)
	}
	return append(dst, '}'), nil
}

// DecodeRecord parses one JSONL line. Input written before the schema
// field existed decodes with Schema normalized to SchemaV1; input from a
// newer writer than this reader understands, or with a negative schema
// version no writer produces, is rejected rather than silently misread.
func DecodeRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, err
	}
	if rec.Schema == 0 {
		rec.Schema = SchemaV1
	}
	if rec.Schema < 0 {
		return Record{}, fmt.Errorf("obs: record schema %d is negative", rec.Schema)
	}
	if rec.Schema > SchemaVersion {
		return Record{}, fmt.Errorf("obs: record schema %d newer than supported %d", rec.Schema, SchemaVersion)
	}
	return rec, nil
}

// ReadRecords decodes a whole JSONL stream, skipping blank lines.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var recs []Record
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", n, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// span is the in-memory form of one lifecycle span; it converts to a
// Record at export time. The layout is compact (96 bytes) and holds no
// pointer, so a span chunk is memory the garbage collector never scans:
// the kind is a code into spanKindNames, the task name an index into
// the telemetry's name table, and the small integers are int32. The
// replication index is not stored: every span of a telemetry, and of
// the shard it hands to a fold, belongs to one replication.
type span struct {
	id     uint64
	root   uint64
	start  float64
	end    float64
	vdl    float64
	realDL float64
	slack  float64
	exec   float64 // realized critical-path work at release
	pex    float64 // predicted critical-path work at release
	task   uint32  // name-table index of the task name
	node   int32
	depth  int32 // DAG root spans only
	width  int32 // DAG root spans only
	kind   spanKind
	open   bool
	hasRDL bool
	missed bool
	abort  bool
	boost  bool
}

// spanKind codes a span's kind; spanKindNames holds the exported names.
type spanKind uint8

const (
	kindGlobal spanKind = iota
	kindLocal
	kindStage
	kindSubtask
	kindInject
	numSpanKinds
)

// spanKindNames maps a spanKind to its Record.Kind string.
var spanKindNames = [numSpanKinds]string{"global", "local", "stage", "subtask", "inject"}

// names interns the task names and burst labels of one telemetry, so
// spans and edges hold a uint32 index instead of a string. Index 0 is
// "" and is never looked up: the unnamed tasks of tree workloads cost
// nothing. The table grows with the distinct names a run uses, not
// with its length.
type names struct {
	list  []string // list[i] is the name of index i; list[0] is ""
	index map[string]uint32
}

// id returns the index of name, adding it on first use.
func (n *names) id(name string) uint32 {
	if name == "" {
		return 0
	}
	if i, ok := n.index[name]; ok {
		return i
	}
	if n.index == nil {
		n.index = make(map[string]uint32)
		n.list = append(n.list, "")
	}
	i := uint32(len(n.list))
	n.list = append(n.list, name)
	n.index[name] = i
	return i
}

// nameAt resolves index i of the name list list.
func nameAt(list []string, i uint32) string {
	if i == 0 {
		return ""
	}
	return list[i]
}

// spanFloats backs the optional float fields of one span Record:
// start, vdl, slack, exec, pex, real_dl, end, lateness.
type spanFloats [8]float64

// record converts the span of replication rep, whose names index list,
// to its serialized form. Still-open spans omit End and Lateness;
// aborted spans keep End (the abort instant) but omit Lateness, because
// a withdrawal has no completion to judge.
func (s *span) record(rep int, list []string) Record {
	return s.recordIn(new(spanFloats), rep, list)
}

// recordIn is record with the float fields stored in *v — one
// allocation per Record instead of one per field, or none when the
// caller encodes the Record at once and keeps v on its stack.
func (s *span) recordIn(v *spanFloats, rep int, list []string) Record {
	v[0], v[1], v[2], v[3], v[4] = s.start, s.vdl, s.slack, s.exec, s.pex
	rec := Record{
		Schema:  SchemaVersion,
		Type:    "span",
		Kind:    spanKindNames[s.kind],
		Task:    nameAt(list, s.task),
		Node:    int(s.node),
		ID:      s.id,
		Root:    s.root,
		Rep:     rep,
		Start:   &v[0],
		VDL:     &v[1],
		Slack:   &v[2],
		Exec:    &v[3],
		Pex:     &v[4],
		Missed:  s.missed,
		Aborted: s.abort,
		Boost:   s.boost,
		Depth:   int(s.depth),
		Width:   int(s.width),
	}
	if s.hasRDL {
		v[5] = s.realDL
		rec.RealDL = &v[5]
	}
	if !s.open {
		v[6] = s.end
		rec.End = &v[6]
		if late, ok := s.lateness(); ok {
			v[7] = late
			rec.Lateness = &v[7]
		}
	}
	return rec
}

// lateness returns the span's lateness (end minus judging deadline) and
// whether it is defined: only finished spans have one — open spans have
// no end, and an abort instant is a withdrawal, not a completion.
func (s *span) lateness() (float64, bool) {
	if s.open || s.abort {
		return 0, false
	}
	judge := s.vdl
	if s.hasRDL {
		judge = s.realDL
	}
	return s.end - judge, true
}

// encodeLines writes n JSONL records through par.Encode: enc appends
// records lo..hi-1 with appendLine. A failing write is named like a
// failing record, "obs: write <what> <index>", by the first record of
// the chunk that failed to write.
func encodeLines(w io.Writer, n int, what string, enc func(dst []byte, lo, hi int) ([]byte, error)) error {
	err := par.Encode(w, n, enc)
	var we *par.WriteError
	if errors.As(err, &we) {
		return fmt.Errorf("obs: write %s %d: %w", what, we.Index, we.Err)
	}
	return err
}

// appendLine appends rec and a newline to dst, the line WriteRecord
// writes for it. On failure dst comes back at its original length and
// the error names the record as "obs: write <what> <i>".
func appendLine(dst []byte, rec *Record, what string, i int) ([]byte, error) {
	dst, err := AppendRecord(dst, rec)
	if err != nil {
		return dst, fmt.Errorf("obs: write %s %d: %w", what, i, err)
	}
	return append(dst, '\n'), nil
}

// SpansTail materializes the most recent n retained spans, in release
// order (all of them when n <= 0 or n >= the retained count). The live
// observability hub uses it so a per-tick snapshot costs O(n) in the
// ring size rather than O(total spans recorded).
func (t *Telemetry) SpansTail(n int) []Record {
	start := 0
	if n > 0 && n < t.spans.n {
		start = t.spans.n - n
	}
	out := make([]Record, t.spans.n-start)
	vs := make([]spanFloats, len(out))
	for i := range out {
		out[i] = t.spans.get(start+i).recordIn(&vs[i], t.rep, t.names.list)
	}
	return out
}
