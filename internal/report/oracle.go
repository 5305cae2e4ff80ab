package report

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/sim"
)

// OracleCell is one strategy's analytic-oracle audit at the Table 1
// baseline cell.
type OracleCell struct {
	Strategy   string
	Checks     int64
	Skipped    int64
	Violations []string
	// ViolationCount includes violations beyond the recorded sample.
	ViolationCount int64
}

// Passed reports whether every completion respected its analytic bound.
func (c OracleCell) Passed() bool { return c.ViolationCount == 0 }

// OracleCheck runs one replication of the UD and DIV-1 baseline cells at
// fidelity o with the analytic response-time oracle attached: every
// completed task is checked against the schedule-independent lower bound
// R >= len(G) (see internal/analysis and docs/ANALYSIS.md). A violation
// means the simulator finished work faster than physically possible — a
// simulator bug, not a workload property — so any non-zero count fails
// the reproduction report.
func OracleCheck(o exp.Options) ([]OracleCell, error) {
	out := make([]OracleCell, len(baselineStrategies))
	for i, psp := range baselineStrategies {
		cfg := exp.BaselineConfig(o)
		cfg.Replications = 1
		cfg.PSP = psp
		oracle := analysis.NewOracle()
		cfg.Recorder = oracle
		sys, err := sim.NewSystem(cfg, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", psp.Name(), err)
		}
		if err := sys.Start(); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", psp.Name(), err)
		}
		sys.Finish(sys.Horizon())
		out[i] = OracleCell{
			Strategy:       psp.Name(),
			Checks:         oracle.Checks(),
			Skipped:        oracle.Skipped(),
			Violations:     oracle.Violations(),
			ViolationCount: oracle.ViolationCount(),
		}
	}
	return out, nil
}

// OraclePassed reports whether every cell passed its audit.
func OraclePassed(cells []OracleCell) bool {
	for _, c := range cells {
		if !c.Passed() {
			return false
		}
	}
	return true
}

// OracleMarkdown renders the oracle audit as a markdown section that
// appends cleanly to the reproduction report. Deterministic for identical
// inputs.
func OracleMarkdown(cells []OracleCell) string {
	var b strings.Builder
	b.WriteString("\n## Analytic oracle audit (baseline cell, one replication)\n\n")
	b.WriteString("| strategy | checks | censored | violations | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---|\n")
	for _, c := range cells {
		verdict := "PASS"
		if !c.Passed() {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %s |\n",
			c.Strategy, c.Checks, c.Skipped, c.ViolationCount, verdict)
	}
	b.WriteString("\nEvery completion is checked against the schedule-independent bound " +
		"response >= critical path (aborted and unfinished tasks are censored); " +
		"a violation would mean the simulator finished work faster than physically possible.\n")
	for _, c := range cells {
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "- %s: %s\n", c.Strategy, v)
		}
	}
	return b.String()
}
