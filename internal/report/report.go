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

// Anchor is one quantitative claim from the paper's text with a measuring
// procedure and an acceptance tolerance (absolute, on the fraction).
type Anchor struct {
	ID          string
	Description string
	Paper       float64 // value stated in the paper
	Tolerance   float64 // acceptable |measured - paper| at default fidelity
	Measure     func(o exp.Options) (float64, error)
}

// Outcome is an anchor with its measurement.
type Outcome struct {
	Anchor
	Measured float64
	Pass     bool
}

// measureCfg builds the baseline config at the given fidelity and applies
// a mutation.
func measureCfg(o exp.Options, mutate func(*sim.Config)) (sim.Result, error) {
	cfg := sim.Default()
	cfg.Duration = o.Duration
	cfg.Warmup = o.Warmup
	cfg.Replications = o.Replications
	cfg.Seed = o.Seed
	mutate(&cfg)
	return sim.Run(cfg)
}

// Anchors returns the paper's quantitative anchors (all at the Table 1
// baseline, load 0.5, unless stated otherwise).
func Anchors() []Anchor {
	md := func(mutate func(*sim.Config), pick func(sim.Result) float64) func(exp.Options) (float64, error) {
		return func(o exp.Options) (float64, error) {
			res, err := measureCfg(o, mutate)
			if err != nil {
				return 0, err
			}
			return pick(res), nil
		}
	}
	local := func(r sim.Result) float64 { return r.MDLocal.Mean }
	subtask := func(r sim.Result) float64 { return r.MDSubtask.Mean }
	global := func(r sim.Result) float64 { return r.MDGlobal.Mean }

	return []Anchor{
		{
			ID: "ud-local", Description: "MD_local under UD @ load 0.5 (Fig. 5)",
			Paper: 0.089, Tolerance: 0.015,
			Measure: md(func(c *sim.Config) { c.PSP = sda.UD{} }, local),
		},
		{
			ID: "ud-subtask", Description: "MD_subtask under UD @ load 0.5 (Fig. 5)",
			Paper: 0.071, Tolerance: 0.015,
			Measure: md(func(c *sim.Config) { c.PSP = sda.UD{} }, subtask),
		},
		{
			ID: "ud-global", Description: "MD_global under UD @ load 0.5 (Fig. 5)",
			Paper: 0.25, Tolerance: 0.035,
			Measure: md(func(c *sim.Config) { c.PSP = sda.UD{} }, global),
		},
		{
			ID: "div1-local", Description: "MD_local under DIV-1 @ load 0.5 (Fig. 6)",
			Paper: 0.117, Tolerance: 0.02,
			Measure: md(func(c *sim.Config) { c.PSP = sda.MustDiv(1) }, local),
		},
		{
			ID: "div1-global", Description: "MD_global under DIV-1 @ load 0.5 (Fig. 6)",
			Paper: 0.13, Tolerance: 0.025,
			Measure: md(func(c *sim.Config) { c.PSP = sda.MustDiv(1) }, global),
		},
		{
			ID: "abort-ud-global", Description: "MD_global under UD with PM abortion @ load 0.5 (Fig. 11)",
			Paper: 0.15, Tolerance: 0.025,
			Measure: md(func(c *sim.Config) {
				c.PSP = sda.UD{}
				c.Abort = sim.AbortProcessManager
			}, global),
		},
		{
			ID: "abort-div1-global", Description: "MD_global under DIV-1 with PM abortion @ load 0.5 (Fig. 11)",
			Paper: 0.078, Tolerance: 0.02,
			Measure: md(func(c *sim.Config) {
				c.PSP = sda.MustDiv(1)
				c.Abort = sim.AbortProcessManager
			}, global),
		},
	}
}

// Relation is a qualitative (ordering) claim from the paper.
type Relation struct {
	ID          string
	Description string
	Check       func(o exp.Options) (pass bool, detail string, err error)
}

// Relations returns the paper's qualitative claims checked by the report.
func Relations() []Relation {
	return []Relation{
		{
			ID:          "gf-beats-div1",
			Description: "GF misses fewer globals than DIV-1 at high load (Fig. 7)",
			Check: func(o exp.Options) (bool, string, error) {
				div, err := measureCfg(o, func(c *sim.Config) {
					c.Spec.Load = 0.7
					c.PSP = sda.MustDiv(1)
				})
				if err != nil {
					return false, "", err
				}
				gf, err := measureCfg(o, func(c *sim.Config) {
					c.Spec.Load = 0.7
					c.PSP = sda.GF{}
				})
				if err != nil {
					return false, "", err
				}
				detail := fmt.Sprintf("MD_global: GF %.4f vs DIV-1 %.4f",
					gf.MDGlobal.Mean, div.MDGlobal.Mean)
				return gf.MDGlobal.Mean < div.MDGlobal.Mean, detail, nil
			},
		},
		{
			ID:          "amplification",
			Description: "MD_global ≈ 1-(1-MD_subtask)^4 under UD (Sec. 4 arithmetic)",
			Check: func(o exp.Options) (bool, string, error) {
				res, err := measureCfg(o, func(c *sim.Config) { c.PSP = sda.UD{} })
				if err != nil {
					return false, "", err
				}
				predicted := 1 - pow4(1-res.MDSubtask.Mean)
				diff := res.MDGlobal.Mean - predicted
				detail := fmt.Sprintf("observed %.4f vs predicted %.4f",
					res.MDGlobal.Mean, predicted)
				return diff > -0.05 && diff < 0.05, detail, nil
			},
		},
		{
			ID:          "div1-costs-locals",
			Description: "DIV-1 raises MD_local relative to UD (locals pay, Fig. 6)",
			Check: func(o exp.Options) (bool, string, error) {
				ud, err := measureCfg(o, func(c *sim.Config) { c.PSP = sda.UD{} })
				if err != nil {
					return false, "", err
				}
				div, err := measureCfg(o, func(c *sim.Config) { c.PSP = sda.MustDiv(1) })
				if err != nil {
					return false, "", err
				}
				detail := fmt.Sprintf("MD_local: DIV-1 %.4f vs UD %.4f",
					div.MDLocal.Mean, ud.MDLocal.Mean)
				return div.MDLocal.Mean > ud.MDLocal.Mean, detail, nil
			},
		},
		{
			ID:          "missed-work-improves",
			Description: "DIV-1 reduces the missed-work fraction vs UD (Sec. 6.1)",
			Check: func(o exp.Options) (bool, string, error) {
				ud, err := measureCfg(o, func(c *sim.Config) { c.PSP = sda.UD{} })
				if err != nil {
					return false, "", err
				}
				div, err := measureCfg(o, func(c *sim.Config) { c.PSP = sda.MustDiv(1) })
				if err != nil {
					return false, "", err
				}
				detail := fmt.Sprintf("missed work: DIV-1 %.4f vs UD %.4f",
					div.MissedWork.Mean, ud.MissedWork.Mean)
				return div.MissedWork.Mean < ud.MissedWork.Mean, detail, nil
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

// Check measures every anchor and relation at the given fidelity. The
// independent measurements run in parallel.
func Check(o exp.Options) (Results, error) {
	anchors := Anchors()
	relations := Relations()
	out := Results{
		Anchors:   make([]Outcome, len(anchors)),
		Relations: make([]RelationOutcome, len(relations)),
	}
	err := par.Map(0, len(anchors)+len(relations), func(i int) error {
		if i < len(anchors) {
			a := anchors[i]
			v, err := a.Measure(o)
			if err != nil {
				return fmt.Errorf("anchor %s: %w", a.ID, err)
			}
			out.Anchors[i] = Outcome{
				Anchor:   a,
				Measured: v,
				Pass:     v >= a.Paper-a.Tolerance && v <= a.Paper+a.Tolerance,
			}
			return nil
		}
		r := relations[i-len(anchors)]
		pass, detail, err := r.Check(o)
		if err != nil {
			return fmt.Errorf("relation %s: %w", r.ID, err)
		}
		out.Relations[i-len(anchors)] = RelationOutcome{Relation: r, Detail: detail, Pass: pass}
		return nil
	})
	return out, err
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
