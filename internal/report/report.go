// Package report generates a reproduction report: it re-measures the
// paper's quantitative anchors (the numbers quoted in the text of
// Sections 6-8), compares them with stated tolerances, and renders a
// markdown document suitable for EXPERIMENTS.md-style records.
package report

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/sda"
	"repro/internal/sim"
)

// Cell is one configuration the report simulates: the Table 1 baseline
// at a load, under a PSP strategy and an abort policy. Anchors and
// relations name the cells they read, and Check simulates each distinct
// cell once.
type Cell struct {
	Load  float64
	PSP   sda.PSP
	Abort sim.AbortMode
}

// config returns the cell's simulation config at fidelity o.
func (c Cell) config(o exp.Options) sim.Config {
	cfg := exp.BaselineConfig(o)
	cfg.Spec.Load, cfg.PSP, cfg.Abort = c.Load, c.PSP, c.Abort
	return cfg
}

// The cells the anchors and relations read.
var (
	udCell        = Cell{0.5, sda.UD{}, sim.AbortNone}
	div1Cell      = Cell{0.5, sda.MustDiv(1), sim.AbortNone}
	udAbortCell   = Cell{0.5, sda.UD{}, sim.AbortProcessManager}
	div1AbortCell = Cell{0.5, sda.MustDiv(1), sim.AbortProcessManager}
	div1HighCell  = Cell{0.7, sda.MustDiv(1), sim.AbortNone}
	gfHighCell    = Cell{0.7, sda.GF{}, sim.AbortNone}
)

// Anchor is one quantitative claim from the paper's text: the cell it is
// measured at, the quantity picked from that cell's result, and an
// acceptance tolerance (absolute, on the fraction).
type Anchor struct {
	ID          string
	Description string
	Paper       float64 // value stated in the paper
	Tolerance   float64 // acceptable |measured - paper| at default fidelity
	Cell        Cell
	Pick        func(sim.Result) float64
}

// Outcome is an anchor with its measurement.
type Outcome struct {
	Anchor
	Measured float64
	Pass     bool
}

func local(r sim.Result) float64   { return r.MDLocal.Mean }
func subtask(r sim.Result) float64 { return r.MDSubtask.Mean }
func global(r sim.Result) float64  { return r.MDGlobal.Mean }

// Anchors returns the paper's quantitative anchors (all at the Table 1
// baseline, load 0.5).
func Anchors() []Anchor {
	return []Anchor{
		{ID: "ud-local", Description: "MD_local under UD @ load 0.5 (Fig. 5)",
			Paper: 0.089, Tolerance: 0.015, Cell: udCell, Pick: local},
		{ID: "ud-subtask", Description: "MD_subtask under UD @ load 0.5 (Fig. 5)",
			Paper: 0.071, Tolerance: 0.015, Cell: udCell, Pick: subtask},
		{ID: "ud-global", Description: "MD_global under UD @ load 0.5 (Fig. 5)",
			Paper: 0.25, Tolerance: 0.035, Cell: udCell, Pick: global},
		{ID: "div1-local", Description: "MD_local under DIV-1 @ load 0.5 (Fig. 6)",
			Paper: 0.117, Tolerance: 0.02, Cell: div1Cell, Pick: local},
		{ID: "div1-global", Description: "MD_global under DIV-1 @ load 0.5 (Fig. 6)",
			Paper: 0.13, Tolerance: 0.025, Cell: div1Cell, Pick: global},
		{ID: "abort-ud-global", Description: "MD_global under UD with PM abortion @ load 0.5 (Fig. 11)",
			Paper: 0.15, Tolerance: 0.025, Cell: udAbortCell, Pick: global},
		{ID: "abort-div1-global", Description: "MD_global under DIV-1 with PM abortion @ load 0.5 (Fig. 11)",
			Paper: 0.078, Tolerance: 0.02, Cell: div1AbortCell, Pick: global},
	}
}

// Relation is a qualitative (ordering) claim from the paper, judged on
// the results of the cells it names.
type Relation struct {
	ID          string
	Description string
	Cells       []Cell
	Check       func(r map[Cell]sim.Result) (pass bool, detail string)
}

// Relations returns the paper's qualitative claims checked by the report.
func Relations() []Relation {
	return []Relation{
		{
			ID:          "gf-beats-div1",
			Description: "GF misses fewer globals than DIV-1 at high load (Fig. 7)",
			Cells:       []Cell{div1HighCell, gfHighCell},
			Check: func(r map[Cell]sim.Result) (bool, string) {
				gf, div := r[gfHighCell].MDGlobal.Mean, r[div1HighCell].MDGlobal.Mean
				return gf < div, fmt.Sprintf("MD_global: GF %.4f vs DIV-1 %.4f", gf, div)
			},
		},
		{
			ID:          "amplification",
			Description: "MD_global ≈ 1-(1-MD_subtask)^4 under UD (Sec. 4 arithmetic)",
			Cells:       []Cell{udCell},
			Check: func(r map[Cell]sim.Result) (bool, string) {
				res := r[udCell]
				predicted := 1 - pow4(1-res.MDSubtask.Mean)
				diff := res.MDGlobal.Mean - predicted
				return diff > -0.05 && diff < 0.05,
					fmt.Sprintf("observed %.4f vs predicted %.4f", res.MDGlobal.Mean, predicted)
			},
		},
		{
			ID:          "div1-costs-locals",
			Description: "DIV-1 raises MD_local relative to UD (locals pay, Fig. 6)",
			Cells:       []Cell{udCell, div1Cell},
			Check: func(r map[Cell]sim.Result) (bool, string) {
				div, ud := r[div1Cell].MDLocal.Mean, r[udCell].MDLocal.Mean
				return div > ud, fmt.Sprintf("MD_local: DIV-1 %.4f vs UD %.4f", div, ud)
			},
		},
		{
			ID:          "missed-work-improves",
			Description: "DIV-1 reduces the missed-work fraction vs UD (Sec. 6.1)",
			Cells:       []Cell{udCell, div1Cell},
			Check: func(r map[Cell]sim.Result) (bool, string) {
				div, ud := r[div1Cell].MissedWork.Mean, r[udCell].MissedWork.Mean
				return div < ud, fmt.Sprintf("missed work: DIV-1 %.4f vs UD %.4f", div, ud)
			},
		},
	}
}

func pow4(x float64) float64 { return float64(x * x * x * x) }

// Results bundles the outcome of a full check run.
type Results struct {
	Anchors   []Outcome
	Relations []RelationOutcome
}

// RelationOutcome is a relation with its verdict.
type RelationOutcome struct {
	Relation
	Detail string
	Pass   bool
}

// Passed reports whether every anchor and relation passed.
func (r Results) Passed() bool {
	for _, a := range r.Anchors {
		if !a.Pass {
			return false
		}
	}
	for _, rel := range r.Relations {
		if !rel.Pass {
			return false
		}
	}
	return true
}

// cells returns the distinct cells the anchors and relations name, in
// order of first mention.
func cells(anchors []Anchor, relations []Relation) []Cell {
	var out []Cell
	seen := map[Cell]bool{}
	add := func(c Cell) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, a := range anchors {
		add(a.Cell)
	}
	for _, r := range relations {
		for _, c := range r.Cells {
			add(c)
		}
	}
	return out
}

// Check simulates each distinct cell once, in parallel, and judges every
// anchor and relation on the results.
func Check(o exp.Options) (Results, error) {
	anchors, relations := Anchors(), Relations()
	cs := cells(anchors, relations)
	results := make([]sim.Result, len(cs))
	err := par.Map(o.Workers, len(cs), func(i int) error {
		res, err := sim.Run(cs[i].config(o))
		if err != nil {
			return fmt.Errorf("%s at load %v (abort %v): %w", cs[i].PSP.Name(), cs[i].Load, cs[i].Abort, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return Results{}, err
	}
	measured := make(map[Cell]sim.Result, len(cs))
	for i, c := range cs {
		measured[c] = results[i]
	}
	var out Results
	for _, a := range anchors {
		v := a.Pick(measured[a.Cell])
		out.Anchors = append(out.Anchors, Outcome{
			Anchor:   a,
			Measured: v,
			Pass:     v >= a.Paper-a.Tolerance && v <= a.Paper+a.Tolerance,
		})
	}
	for _, r := range relations {
		pass, detail := r.Check(measured)
		out.Relations = append(out.Relations, RelationOutcome{Relation: r, Detail: detail, Pass: pass})
	}
	return out, nil
}

// Markdown renders the results as a markdown reproduction report.
func Markdown(r Results, o exp.Options) string {
	var b strings.Builder
	b.WriteString("# Reproduction report\n\n")
	fmt.Fprintf(&b, "Fidelity: %d replication(s) × %v time units (warmup %v), seed %d.\n\n",
		o.Replications, o.Duration, o.Warmup, o.Seed)

	b.WriteString("## Quantitative anchors\n\n")
	b.WriteString("| anchor | paper | measured | tolerance | verdict |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, a := range r.Anchors {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %.3f | %.4f | ±%.3f | %s |\n",
			a.Description, a.Paper, a.Measured, a.Tolerance, verdict)
	}

	b.WriteString("\n## Qualitative claims\n\n")
	b.WriteString("| claim | evidence | verdict |\n")
	b.WriteString("|---|---|---|\n")
	for _, rel := range r.Relations {
		verdict := "PASS"
		if !rel.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", rel.Description, rel.Detail, verdict)
	}

	b.WriteString("\n")
	if r.Passed() {
		b.WriteString("**All checks passed.**\n")
	} else {
		b.WriteString("**Some checks FAILED** — rerun at higher fidelity (-duration) before concluding a regression.\n")
	}
	return b.String()
}
