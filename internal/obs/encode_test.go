package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// checkAppendRecord asserts AppendRecord writes exactly json.Marshal's
// bytes for rec, or fails exactly when json.Marshal fails — leaving dst
// untouched then.
func checkAppendRecord(t *testing.T, rec Record) {
	t.Helper()
	want, werr := json.Marshal(rec)
	got, gerr := AppendRecord([]byte("prefix"), &rec)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("json.Marshal failed (%v) but AppendRecord wrote %s", werr, got)
	case werr == nil && gerr != nil:
		t.Fatalf("AppendRecord failed (%v) on %s", gerr, want)
	case gerr != nil:
		if string(got) != "prefix" {
			t.Fatalf("AppendRecord left %q on error", got)
		}
	case string(got) != "prefix"+string(want):
		t.Fatalf("encoding drifted from json.Marshal:\ngot:  %s\nwant: prefix%s", got, want)
	}
}

// TestAppendRecordMatchesMarshal pins the hand-written record encoder to
// encoding/json over the escaping and float-format edge cases, each
// optional field alone, and non-finite values.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	strs := []string{"", "G1.s2", "<script>&</script>", `"\`, "\x00\x1f\b\f\n\r\t\x7f",
		"\xff", "ab\xe2\x80", "\u2028\u2029", "\u00e9\U0001f642"}
	floats := []float64{0, math.Copysign(0, -1), 22.5, -1, 1e-6, 1e-7, 9.999e-7, 1e20, 1e21, -1e21,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 18894.399502410095,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, s := range strs {
		checkAppendRecord(t, Record{Type: s, Kind: s, Task: s, Node: -1})
	}
	for _, f := range floats {
		for i := 0; i < len(recordFloatKeys); i++ {
			rec := Record{Schema: SchemaVersion, Type: "span", Node: 3}
			*recordFloatPtr(&rec, i) = &f
			checkAppendRecord(t, rec)
		}
	}
	checkAppendRecord(t, Record{})
	checkAppendRecord(t, Record{Schema: -1, Node: math.MinInt, ID: math.MaxUint64, Rep: -2,
		Depth: math.MaxInt, Width: -1, Missed: true, Boost: true})
}

// recordFloatPtr returns the address of Record's i-th optional float
// field, in recordFloatKeys order.
func recordFloatPtr(rec *Record, i int) **float64 {
	return [...]**float64{&rec.Start, &rec.End, &rec.At, &rec.VDL, &rec.RealDL,
		&rec.Slack, &rec.Exec, &rec.Pex, &rec.Lateness}[i]
}

// TestAppendRecordCoversEveryField is the reflection guard: a Record
// with every field set to a non-zero value must encode exactly as
// json.Marshal encodes it. A field added to Record without a matching
// line in AppendRecord fails here.
func TestAppendRecordCoversEveryField(t *testing.T) {
	var rec Record
	v := reflect.ValueOf(&rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 2))
		case reflect.Uint64:
			f.SetUint(uint64(i + 100))
		case reflect.String:
			f.SetString(strings.Repeat("s", i+1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			x := float64(i) + 0.5
			f.Set(reflect.ValueOf(&x))
		default:
			t.Fatalf("Record.%s has kind %s, which AppendRecord does not encode", v.Type().Field(i).Name, f.Kind())
		}
	}
	checkAppendRecord(t, rec)
}

// TestSameRecordCoversEveryField is the reflection guard of the merge's
// round-trip check: changing any one field of a fully set Record —
// a float by value or by presence — must make sameRecord report a
// difference.
func TestSameRecordCoversEveryField(t *testing.T) {
	var rec Record
	v := reflect.ValueOf(&rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 2))
		case reflect.Uint64:
			f.SetUint(uint64(i + 100))
		case reflect.String:
			f.SetString(strings.Repeat("s", i+1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			x := float64(i) + 0.5
			f.Set(reflect.ValueOf(&x))
		default:
			t.Fatalf("Record.%s has kind %s, which sameRecord does not compare", v.Type().Field(i).Name, f.Kind())
		}
	}
	same := rec
	for i := range recordFloatKeys {
		x := **recordFloatPtr(&rec, i)
		*recordFloatPtr(&same, i) = &x
	}
	if !sameRecord(&rec, &same) {
		t.Fatalf("equal records with distinct float blocks compare different")
	}
	for i := 0; i < v.NumField(); i++ {
		changes := []func(f reflect.Value){}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			changes = append(changes, func(f reflect.Value) { f.SetInt(f.Int() + 1) })
		case reflect.Uint64:
			changes = append(changes, func(f reflect.Value) { f.SetUint(f.Uint() + 1) })
		case reflect.String:
			changes = append(changes, func(f reflect.Value) { f.SetString(f.String() + "x") })
		case reflect.Bool:
			changes = append(changes, func(f reflect.Value) { f.SetBool(!f.Bool()) })
		case reflect.Pointer:
			changes = append(changes,
				func(f reflect.Value) { x := math.Copysign(0, -1); f.Set(reflect.ValueOf(&x)) },
				func(f reflect.Value) { f.Set(reflect.Zero(f.Type())) })
		}
		for k, change := range changes {
			other := rec
			change(reflect.ValueOf(&other).Elem().Field(i))
			if sameRecord(&rec, &other) {
				t.Errorf("changing Record.%s (change %d) goes unnoticed", v.Type().Field(i).Name, k)
			}
		}
	}
}

// TestWriteRecordMatchesMarshal checks the line writer end to end:
// the stamped schema, the encoding and the trailing newline.
func TestWriteRecordMatchesMarshal(t *testing.T) {
	sp := span{id: 7, root: 3, kind: kindSubtask, task: 1, node: 2, start: 1e-7, end: 1e21,
		vdl: 20, realDL: 25, hasRDL: true, slack: math.Copysign(0, -1), exec: 6, pex: 5e-324, missed: true, boost: true}
	rec := sp.record(2, []string{"", "G<1>"})
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteRecord(&b, rec); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want)+"\n" {
		t.Errorf("line drifted:\ngot:  %s\nwant: %s", b.String(), want)
	}
	bad := rec
	bad.Slack = F(math.NaN())
	if err := WriteRecord(&b, bad); err == nil {
		t.Errorf("NaN field written")
	}
}

// FuzzAppendRecord drives AppendRecord and json.Marshal with arbitrary
// strings, integers and float bit patterns (NaN and infinities
// included) and requires identical bytes or a shared failure.
func FuzzAppendRecord(f *testing.F) {
	f.Add("span", "subtask", "G1.s2", -1, uint64(7), 2, math.Float64bits(22.5), math.Float64bits(1e-7), true, uint8(0xff))
	f.Add("edge", "<&>", "\xff\u2028", 0, uint64(0), 0, math.Float64bits(math.NaN()), math.Float64bits(1e21), false, uint8(0x0f))
	f.Add("", "", "", 1, uint64(1), -1, uint64(1), math.Float64bits(math.Copysign(0, -1)), true, uint8(0))
	f.Fuzz(func(t *testing.T, typ, kind, task string, node int, id uint64, rep int, bitsA, bitsB uint64, flag bool, mask uint8) {
		rec := Record{Schema: rep % 4, Type: typ, Kind: kind, Task: task, Node: node,
			ID: id, Root: id / 3, Rep: rep, From: id >> 7, Missed: flag, Aborted: !flag, Boost: mask&1 != 0,
			Depth: node, Width: rep}
		a, b := math.Float64frombits(bitsA), math.Float64frombits(bitsB)
		for i := 0; i < len(recordFloatKeys); i++ {
			switch {
			case mask&(1<<(i%8)) == 0:
			case i%2 == 0:
				*recordFloatPtr(&rec, i) = &a
			default:
				*recordFloatPtr(&rec, i) = &b
			}
		}
		checkAppendRecord(t, rec)
	})
}
