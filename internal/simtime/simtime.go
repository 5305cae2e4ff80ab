// Package simtime defines the virtual time base used throughout the
// simulator and the deadline-assignment library.
//
// The paper expresses all times in abstract "time units" relativised to the
// mean execution time of a local task (mu_local = 1). We therefore model
// simulated time as a float64 wrapped in distinct Time (an instant) and
// Duration (a span) types so that instants and spans cannot be mixed up by
// accident. This mirrors the time.Time / time.Duration split of the
// standard library, but for a dimensionless simulated clock.
package simtime

import (
	"math"
	"strconv"
)

// Time is an instant on the simulated clock, measured in abstract time
// units since the start of the simulation.
type Time float64

// Duration is a span of simulated time in abstract time units.
type Duration float64

// Sentinel values. Never is later than every representable instant and is
// used for "no deadline"; Forever is the corresponding unbounded span.
const (
	Zero    Time     = 0
	Never   Time     = Time(math.MaxFloat64)
	Forever Duration = Duration(math.MaxFloat64)
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t (t minus u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Min returns the earlier of t and u.
func (t Time) Min(u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// IsNever reports whether t is the Never sentinel.
func (t Time) IsNever() bool { return t == Never }

// String formats the instant with enough precision for logs and test
// failure messages.
func (t Time) String() string {
	if t.IsNever() {
		return "never"
	}
	return strconv.FormatFloat(float64(t), 'g', 10, 64)
}

// Seconds returns the span as a raw float64 in time units.
func (d Duration) Seconds() float64 { return float64(d) }

// Scale returns the span multiplied by f.
func (d Duration) Scale(f float64) Duration { return Duration(float64(d) * f) }

// Min returns the smaller of d and e.
func (d Duration) Min(e Duration) Duration {
	if d < e {
		return d
	}
	return e
}

// Max returns the larger of d and e.
func (d Duration) Max(e Duration) Duration {
	if d > e {
		return d
	}
	return e
}

// String formats the span.
func (d Duration) String() string {
	if d == Forever {
		return "forever"
	}
	return strconv.FormatFloat(float64(d), 'g', 10, 64)
}
