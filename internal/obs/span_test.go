package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/task"
)

// TestSpanLayout pins the compact span and edge records: no pointer
// anywhere in either, so their ring chunks are memory the garbage
// collector never scans, and 96 and 40 bytes on 64-bit hosts, so the
// rings stay small. A new field belongs in the padding or needs a
// reason to grow the rings.
func TestSpanLayout(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(span{}), reflect.TypeOf(edge{})} {
		if path, ok := pointerFree(typ, typ.Name()); !ok {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(span{}); got != 96 {
		t.Errorf("span is %d bytes, want 96", got)
	}
	if got := unsafe.Sizeof(edge{}); got != 40 {
		t.Errorf("edge is %d bytes, want 40", got)
	}
}

// pointerFree walks typ, reporting false and the path of the first
// field that is or holds a pointer (a string, slice, map, interface,
// func, chan or pointer).
func pointerFree(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
		return "", true
	case reflect.Array:
		return pointerFree(typ.Elem(), path+"[]")
	case reflect.String, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func,
		reflect.Chan, reflect.Pointer, reflect.UnsafePointer:
		return path, false
	}
	return "", true
}

// TestPointerFreeWalk checks the walk TestSpanLayout relies on: a
// pointer nested in an array of structs is found.
func TestPointerFreeWalk(t *testing.T) {
	type inner struct {
		a int
		b *int
	}
	type outer struct {
		x  float64
		in [2]inner
	}
	if path, ok := pointerFree(reflect.TypeOf(outer{}), "outer"); ok || path != "outer.in[].b" {
		t.Errorf("pointerFree = %q, %v; want outer.in[].b, false", path, ok)
	}
}

// TestSpanRecordEncoding pins the exact JSONL encoding of the three span
// lifecycle states. The aborted and still-open cases are the contract the
// attribution engine relies on: an open span has no End and no Lateness
// (censored at the horizon), an aborted span keeps its End (the abort
// instant) but carries no Lateness (a withdrawal has no completion to
// judge), and only finished spans carry a Lateness.
func TestSpanRecordEncoding(t *testing.T) {
	cases := []struct {
		name string
		sp   span
		want string
	}{
		{
			name: "aborted",
			sp: span{
				id: 7, root: 3, kind: kindSubtask, task: 2, node: 2,
				start: 10, end: 15, open: false,
				vdl: 20, slack: 4, exec: 6, pex: 6,
				missed: true, abort: true,
			},
			want: `{"schema":3,"type":"span","kind":"subtask","task":"G1.s2","node":2,"id":7,"root":3,"start":10,"end":15,"vdl":20,"slack":4,"exec":6,"pex":6,"missed":true,"aborted":true}`,
		},
		{
			name: "still-open-at-horizon",
			sp: span{
				id: 3, kind: kindGlobal, task: 1, node: -1,
				start: 10, open: true,
				vdl: 30, realDL: 32, hasRDL: true, slack: 4, exec: 6, pex: 6,
			},
			want: `{"schema":3,"type":"span","kind":"global","task":"G1","node":-1,"id":3,"start":10,"vdl":30,"real_dl":32,"slack":4,"exec":6,"pex":6}`,
		},
		{
			name: "finished",
			sp: span{
				id: 7, root: 3, kind: kindSubtask, task: 2, node: 2,
				start: 10, end: 22.5, open: false,
				vdl: 20, slack: 4, exec: 6, pex: 6,
				missed: true,
			},
			want: `{"schema":3,"type":"span","kind":"subtask","task":"G1.s2","node":2,"id":7,"root":3,"start":10,"end":22.5,"vdl":20,"slack":4,"exec":6,"pex":6,"lateness":2.5,"missed":true}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.sp.record(0, []string{"", "G1", "G1.s2"})
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.want {
				t.Errorf("encoding drifted:\ngot:  %s\nwant: %s", b, tc.want)
			}
			// The encoding must round-trip through the tolerant decoder.
			back, err := DecodeRecord(b)
			if err != nil {
				t.Fatalf("DecodeRecord: %v", err)
			}
			if back.Schema != SchemaVersion {
				t.Errorf("round-trip schema %d, want %d", back.Schema, SchemaVersion)
			}
			if tc.sp.abort && back.Lateness != nil {
				t.Errorf("aborted span decoded with lateness %v", *back.Lateness)
			}
			if tc.sp.open && back.End != nil {
				t.Errorf("open span decoded with end %v", *back.End)
			}
		})
	}
}

// TestWriteRecordStampsSchema proves WriteRecord versions unversioned
// records, so every JSONL writer (spans, edges, traces) emits the
// current schema.
func TestWriteRecordStampsSchema(t *testing.T) {
	var b strings.Builder
	if err := WriteRecord(&b, Record{Type: "event", Kind: "start", Task: "L1", Node: 0}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), `{"schema":3,`) {
		t.Fatalf("record not stamped with schema: %s", b.String())
	}
}

// TestEdgeRecordEncoding pins the exact JSONL encoding of a causal-edge
// record: the v3 addition the trace-tree assembler consumes. From is the
// causing span, ID the effect span; edges carry no span timing fields.
func TestEdgeRecordEncoding(t *testing.T) {
	rec := Record{
		Schema: SchemaVersion, Type: "edge", Kind: "pred",
		Task: "G1.s2", Node: -1, ID: 9, Root: 3, From: 7, At: F(12.5),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":3,"type":"edge","kind":"pred","task":"G1.s2","node":-1,"id":9,"root":3,"from":7,"at":12.5}`
	if string(b) != want {
		t.Errorf("encoding drifted:\ngot:  %s\nwant: %s", b, want)
	}
	back, err := DecodeRecord(b)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if back.From != 7 || back.ID != 9 || back.Type != "edge" {
		t.Errorf("round-trip lost edge fields: %+v", back)
	}
	// A v2 reader's fields are a strict subset, so v2 span input decodes
	// unchanged and keeps its version.
	v2 := `{"schema":2,"type":"span","kind":"local","task":"x","node":0,"start":1}`
	rec2, err := DecodeRecord([]byte(v2))
	if err != nil {
		t.Fatalf("v2 input rejected: %v", err)
	}
	if rec2.Schema != SchemaV2 || rec2.From != 0 {
		t.Errorf("v2 input mangled: %+v", rec2)
	}
}

// TestDecodeRecordTolerance covers schema evolution: the unversioned PR 3
// format decodes as v1, and input from a future writer is rejected.
func TestDecodeRecordTolerance(t *testing.T) {
	// A genuine v1 line: no schema field, aborted span with a lateness.
	v1 := `{"type":"span","kind":"global","task":"G9","node":-1,"id":4,"start":1,"end":7,"vdl":6,"real_dl":6,"slack":2,"lateness":1,"missed":true,"aborted":true}`
	rec, err := DecodeRecord([]byte(v1))
	if err != nil {
		t.Fatalf("v1 input rejected: %v", err)
	}
	if rec.Schema != SchemaV1 {
		t.Errorf("v1 input normalized to schema %d, want %d", rec.Schema, SchemaV1)
	}
	if rec.Exec != nil || rec.Pex != nil {
		t.Errorf("v1 input grew exec/pex fields")
	}
	if rec.Lateness == nil || *rec.Lateness != 1 {
		t.Errorf("v1 lateness not preserved: %+v", rec.Lateness)
	}

	if _, err := DecodeRecord([]byte(`{"schema":99,"type":"span","kind":"local","task":"x","node":0}`)); err == nil {
		t.Errorf("future schema accepted")
	}
	if _, err := DecodeRecord([]byte(`{"schema":-5,"type":"span","kind":"local","task":"x","node":0}`)); err == nil {
		t.Errorf("negative schema accepted")
	}
	if _, err := DecodeRecord([]byte(`not json`)); err == nil {
		t.Errorf("malformed line accepted")
	}
}

// FuzzDecodeRecord feeds DecodeRecord arbitrary lines: each must either
// fail or decode to a record whose encoding decodes back to the same
// record, so nothing the reader accepts is lost by rewriting it.
func FuzzDecodeRecord(f *testing.F) {
	for _, line := range []string{
		// v1: no schema field, aborted span with a lateness.
		`{"type":"span","kind":"global","task":"G9","node":-1,"id":4,"start":1,"end":7,"vdl":6,"real_dl":6,"slack":2,"lateness":1,"missed":true,"aborted":true}`,
		// v2: schema marker and exec/pex.
		`{"schema":2,"type":"span","kind":"subtask","task":"G1.s2","node":2,"id":7,"root":3,"rep":1,"start":10,"end":22.5,"vdl":20,"slack":4,"exec":6,"pex":6,"lateness":2.5,"missed":true,"boost":true,"depth":3,"width":2}`,
		`{"schema":2,"type":"event","kind":"start","task":"b","node":1,"at":3}`,
		// v3: a causal edge.
		`{"schema":3,"type":"edge","kind":"pred","task":"G1.s2","node":-1,"id":9,"root":3,"from":7,"at":12.5}`,
		`{"schema":-5,"type":"span","kind":"local","task":"x","node":0}`,
		`{"schema":3,"type":"span","kind":"x","task":"\u2028\ud800","node":0,"start":-0,"end":1e-320,"vdl":null}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeRecord(line)
		if err != nil {
			return
		}
		if rec.Schema < SchemaV1 || rec.Schema > SchemaVersion {
			t.Fatalf("decoded schema %d outside [%d, %d]", rec.Schema, SchemaV1, SchemaVersion)
		}
		b, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", rec, err)
		}
		back, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip changed the record:\n in  %+v\n out %+v\n via %s", rec, back, b)
		}
	})
}

// TestReadRecords covers the stream decoder: blank lines skipped, order
// preserved, first bad line reported with its number.
func TestReadRecords(t *testing.T) {
	in := `{"type":"span","kind":"local","task":"a","node":0}

{"schema":2,"type":"event","kind":"start","task":"b","node":1,"at":3}
`
	recs, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	if recs[0].Schema != SchemaV1 || recs[1].Schema != SchemaV2 {
		t.Errorf("schemas = %d, %d; want %d, %d", recs[0].Schema, recs[1].Schema, SchemaV1, SchemaV2)
	}
	if _, err := ReadRecords(strings.NewReader("{}\nbroken\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad line not located: %v", err)
	}
}

// TestSpanCloseAllocs: at steady state on a full ring, releasing and
// closing a subtask span and recording a local span allocate nothing
// (BenchmarkObsSpanClose times the same operations).
func TestSpanCloseAllocs(t *testing.T) {
	const budget = 1 << 11
	tel := New(Options{Enabled: true, MaxSpans: budget})
	sub := task.MustSimple("", 1, 2)
	root := task.MustParallel("", sub)
	sub.VirtualDeadline, sub.Finish = 8, 5
	local := task.MustSimple("L", 0, 3)
	local.RealDeadline, local.VirtualDeadline, local.Finish = 6, 6, 4
	op := func() {
		tel.RecordRelease(sub, root, 8)
		tel.RecordSubtask(sub, false)
		tel.RecordLocal(local, false)
	}
	for i := 0; i < budget; i++ {
		op()
	}
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Errorf("a span release and close and a local span allocate %v times", n)
	}
	if tel.spans.n != budget {
		t.Fatalf("ring holds %d spans, want a full %d", tel.spans.n, budget)
	}
}
