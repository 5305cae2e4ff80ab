// Package jsonenc holds the value appenders behind the telemetry
// exporters' hand-written JSON encoders. Each appender writes exactly the
// bytes encoding/json's Marshal writes for the same Go value — HTML-safe
// string escaping and ES6-style float formatting — so the exporters can
// skip reflection and per-record allocation while their output stays
// byte-identical to the json.Marshal form the schemas were pinned with.
// The differential tests in this package and in the exporters use
// json.Marshal as the oracle.
package jsonenc

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// htmlSafe reports whether an ASCII byte is copied into a JSON string
// unescaped under encoding/json's default (HTML-escaping) rules: every
// printable byte except the quote, the backslash and <, >, &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// String appends s as a quoted JSON string, escaped the way
// json.Marshal escapes a string: control bytes, the quote, the
// backslash and the HTML-significant <, > and & are escaped, invalid
// UTF-8 bytes become \ufffd, and U+2028/U+2029 are escaped.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f as a JSON number, formatted the way json.Marshal
// formats a float64: the shortest round-tripping decimal, in exponent
// form outside [1e-6, 1e21) with a single-digit negative exponent
// unpadded. NaN and ±Inf have no JSON form and return an error, as
// json.Marshal does; dst is returned unchanged then.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("jsonenc: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
