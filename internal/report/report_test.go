package report

import (
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestAnchorsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Anchors() {
		if a.ID == "" || a.Description == "" || a.Pick == nil || a.Cell.PSP == nil {
			t.Errorf("anchor %+v incomplete", a.ID)
		}
		if a.Paper <= 0 || a.Paper >= 1 {
			t.Errorf("anchor %s: paper value %v outside (0,1)", a.ID, a.Paper)
		}
		if a.Tolerance <= 0 {
			t.Errorf("anchor %s: tolerance %v", a.ID, a.Tolerance)
		}
		if seen[a.ID] {
			t.Errorf("duplicate anchor id %s", a.ID)
		}
		seen[a.ID] = true
	}
	if len(Anchors()) < 7 {
		t.Errorf("anchors = %d, want >= 7", len(Anchors()))
	}
}

func TestRelationsWellFormed(t *testing.T) {
	for _, r := range Relations() {
		if r.ID == "" || r.Description == "" || r.Check == nil || len(r.Cells) == 0 {
			t.Errorf("relation %+v incomplete", r.ID)
		}
	}
}

// TestCellsSimulatedOnce pins how many simulations a report costs: the
// anchors and relations share six distinct cells, and Check runs each
// once.
func TestCellsSimulatedOnce(t *testing.T) {
	cs := cells(Anchors(), Relations())
	if len(cs) != 6 {
		t.Fatalf("distinct cells = %d, want 6: %v", len(cs), cs)
	}
	seen := map[Cell]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Errorf("cell %v listed twice", c)
		}
		seen[c] = true
	}
}

func TestCheckRunsAtTinyFidelity(t *testing.T) {
	o := exp.Options{Duration: 2000, Warmup: 200, Replications: 1, Seed: 11}
	res, err := Check(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anchors) != len(Anchors()) || len(res.Relations) != len(Relations()) {
		t.Fatalf("incomplete results: %d anchors, %d relations",
			len(res.Anchors), len(res.Relations))
	}
	for _, a := range res.Anchors {
		if a.Measured < 0 || a.Measured > 1 {
			t.Errorf("anchor %s measured %v outside [0,1]", a.ID, a.Measured)
		}
	}
	for _, r := range res.Relations {
		if r.Detail == "" {
			t.Errorf("relation %s has no evidence detail", r.ID)
		}
	}
}

func TestCheckPassesAtModerateFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	o := exp.Options{Duration: 60000, Warmup: 1000, Replications: 2, Seed: 1994}
	res, err := Check(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Anchors {
		if !a.Pass {
			t.Errorf("anchor %s: measured %.4f, paper %.3f ± %.3f",
				a.ID, a.Measured, a.Paper, a.Tolerance)
		}
	}
	for _, r := range res.Relations {
		if !r.Pass {
			t.Errorf("relation %s failed: %s", r.ID, r.Detail)
		}
	}
	if !res.Passed() {
		t.Error("overall verdict should be pass")
	}
}

func TestMarkdownRendering(t *testing.T) {
	res := Results{
		Anchors: []Outcome{{
			Anchor:   Anchor{ID: "x", Description: "desc", Paper: 0.25, Tolerance: 0.03},
			Measured: 0.26,
			Pass:     true,
		}},
		Relations: []RelationOutcome{{
			Relation: Relation{ID: "r", Description: "rel"},
			Detail:   "a vs b",
			Pass:     false,
		}},
	}
	md := Markdown(res, exp.QuickOptions())
	for _, want := range []string{
		"# Reproduction report", "desc", "0.2600", "PASS", "rel", "a vs b", "FAIL",
		"Some checks FAILED",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if res.Passed() {
		t.Error("Passed() should be false with a failing relation")
	}
	res.Relations[0].Pass = true
	if !res.Passed() {
		t.Error("Passed() should be true when everything passes")
	}
	md2 := Markdown(res, exp.QuickOptions())
	if !strings.Contains(md2, "All checks passed") {
		t.Error("pass banner missing")
	}
}
