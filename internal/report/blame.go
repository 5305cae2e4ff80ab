package report

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/sda"
	"repro/internal/sim"
)

// baselineStrategies are the PSP strategies the blame and oracle sections
// compare on the Table 1 baseline cell.
var baselineStrategies = []sda.PSP{sda.UD{}, sda.MustDiv(1)}

// BlameCell is one strategy's miss-cause attribution at the Table 1
// baseline cell.
type BlameCell struct {
	Strategy string
	Report   *attrib.Report
}

// BlameCheck runs the UD and DIV-1 baseline cells at fidelity o with
// every replication telemetry-instrumented (on all o.Workers) and
// attributes every missed global deadline over the merged span set. It
// complements the anchors: they say *how often* each strategy misses,
// this says *why* — the paper's argument that DIV-1 trades local
// interference for tighter stage budgets becomes directly inspectable.
func BlameCheck(o exp.Options) ([]BlameCell, error) {
	out := make([]BlameCell, len(baselineStrategies))
	for i, psp := range baselineStrategies {
		cfg := exp.BaselineConfig(o)
		cfg.PSP = psp
		cfg.Obs = obs.Options{Enabled: true}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("blame %s: %w", psp.Name(), err)
		}
		// Retained spans plus exemplars across every replication, merged
		// deterministically — the same input an offline sdaobs -from pass
		// over the run's exported bundle would analyze.
		out[i] = BlameCell{Strategy: psp.Name(), Report: attrib.Analyze(res.Obs.Snapshot().SpansForAnalysis())}
	}
	return out, nil
}

// BlameMarkdown renders the miss-cause comparison as a markdown section
// that appends cleanly to the reproduction report. Deterministic for
// identical inputs.
func BlameMarkdown(cells []BlameCell) string {
	var b strings.Builder
	b.WriteString("\n## Miss-cause mix (baseline cell, merged across instrumented replications)\n\n")
	b.WriteString("| strategy | globals | missed | cause | share | mean wait | mean overrun | mean deficit |\n")
	b.WriteString("|---|---:|---:|---|---:|---:|---:|---:|\n")
	for _, c := range cells {
		r := c.Report
		if r.MissedGlobals == 0 {
			fmt.Fprintf(&b, "| %s | %d | 0 | - | - | - | - | - |\n", c.Strategy, r.Globals)
			continue
		}
		for i, cc := range r.Causes {
			name, globals, missed, w, ov, df := c.Strategy,
				fmt.Sprintf("%d", r.Globals), fmt.Sprintf("%d", r.MissedGlobals),
				fmt.Sprintf("%.3f", r.MeanWait),
				fmt.Sprintf("%.3f", r.MeanOverrun),
				fmt.Sprintf("%.3f", r.MeanDeficit)
			if i > 0 { // continuation row of the same strategy
				name, globals, missed, w, ov, df = "", "", "", "", "", ""
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.1f%% | %s | %s | %s |\n",
				name, globals, missed, cc.Cause,
				100*float64(cc.Count)/float64(r.MissedGlobals), w, ov, df)
		}
	}
	b.WriteString("\nComponents are means over missed globals; wait + overrun + deficit = lateness per miss (see docs/OBSERVABILITY.md).\n")
	return b.String()
}
