package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// TestStringMatchesMarshal pins String to json.Marshal on the escaping
// edge cases: HTML-significant bytes, every control byte, invalid and
// truncated UTF-8, the JSONP separators and multi-byte runes.
func TestStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "G1.s2", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
		"\b\f\n\r\t", "\x7f DEL stays raw",
		"\xff", "ok\xc3", "\xe2\x80", "a\xed\xa0\x80b", // invalid, truncated, surrogate
		"line\u2028sep\u2029para", "h\u00e9llo", "\u65e5\u672c", "emoji \U0001f642",
	}
	for b := 0; b < 0x20; b++ {
		cases = append(cases, "x"+string(rune(b))+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String(nil, s); string(got) != string(want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestFloatMatchesMarshal pins Float to json.Marshal around the
// exponent-form cutoffs, at signed zero and the subnormal range, and
// checks that NaN and ±Inf fail like json.Marshal instead of emitting
// invalid JSON.
func TestFloatMatchesMarshal(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 22.5, 0.1, 1.0 / 3,
		1e-6, 1e-7, 9.99999e-7, 1e-9, 1.5e-10, -1e-7,
		1e20, 1e21, 999999999999999999999, 1e22, -1e21, 1.2345e100,
		5e-324, 2.2250738585072014e-308, math.SmallestNonzeroFloat64 * 3, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, 12345678.125, 1e15, 1 << 53,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Float([]byte("p"), f)
		if err != nil {
			t.Fatalf("Float(%v): %v", f, err)
		}
		if string(got[1:]) != string(want) || got[0] != 'p' {
			t.Errorf("Float(%v) = %s, want p%s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("oracle accepted %v", f)
		}
		got, err := Float([]byte("p"), f)
		if err == nil {
			t.Errorf("Float(%v) succeeded with %s", f, got)
		}
		if string(got) != "p" {
			t.Errorf("Float(%v) wrote %q on error", f, got)
		}
	}
}
