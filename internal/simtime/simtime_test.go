package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	tests := []struct {
		name string
		t0   Time
		d    Duration
		want Time
	}{
		{"zero plus zero", 0, 0, 0},
		{"zero plus one", 0, 1, 1},
		{"negative span", 5, -2, 3},
		{"fractional", 1.5, 0.25, 1.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.t0.Add(tt.d); got != tt.want {
				t.Errorf("%v.Add(%v) = %v, want %v", tt.t0, tt.d, got, tt.want)
			}
			if got := tt.want.Sub(tt.t0); got != tt.d {
				t.Errorf("%v.Sub(%v) = %v, want %v", tt.want, tt.t0, got, tt.d)
			}
		})
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(t0, d float64) bool {
		if math.IsNaN(t0) || math.IsInf(t0, 0) || math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		// Keep magnitudes small enough that float addition is exact-ish.
		t0 = math.Mod(t0, 1e6)
		d = math.Mod(d, 1e6)
		ti := Time(t0)
		got := ti.Add(Duration(d)).Sub(ti)
		return math.Abs(float64(got)-d) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBeforeAfter(t *testing.T) {
	if !Time(1).Before(2) {
		t.Error("1 should be before 2")
	}
	if Time(2).Before(2) {
		t.Error("2 is not before itself")
	}
	if !Time(3).After(2) {
		t.Error("3 should be after 2")
	}
	if !Zero.Before(Never) {
		t.Error("zero should be before never")
	}
}

func TestMinMax(t *testing.T) {
	if got := Time(3).Min(5); got != 3 {
		t.Errorf("Min = %v, want 3", got)
	}
	if got := Time(3).Max(5); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := Duration(3).Min(5); got != 3 {
		t.Errorf("Duration Min = %v, want 3", got)
	}
	if got := Duration(3).Max(5); got != 5 {
		t.Errorf("Duration Max = %v, want 5", got)
	}
}

func TestSentinels(t *testing.T) {
	if !Never.IsNever() {
		t.Error("Never.IsNever() = false")
	}
	if Time(0).IsNever() {
		t.Error("0 should not be never")
	}
	if Never.String() != "never" {
		t.Errorf("Never.String() = %q", Never.String())
	}
	if Duration(Forever).String() != "forever" {
		t.Errorf("Forever.String() = %q", Duration(Forever).String())
	}
}

func TestString(t *testing.T) {
	if got := Time(1.5).String(); got != "1.5" {
		t.Errorf("Time(1.5).String() = %q", got)
	}
	if got := Duration(2).String(); got != "2" {
		t.Errorf("Duration(2).String() = %q", got)
	}
}

func TestScale(t *testing.T) {
	if got := Duration(2).Scale(1.5); got != 3 {
		t.Errorf("Scale = %v, want 3", got)
	}
}
