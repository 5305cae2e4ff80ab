// Command sdareport re-measures the paper's quantitative anchors and
// qualitative claims and emits a markdown reproduction report with
// PASS/FAIL verdicts.
//
// Example:
//
//	sdareport                      # default fidelity (a few minutes)
//	sdareport -quick               # smoke run (verdicts unreliable)
//	sdareport -duration 1000000    # paper-scale fidelity
//
// Exit status is 2 when a verdict fails at full fidelity (a -quick run's
// verdicts are unreliable and never fail it), 1 on any other error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/report"
)

// errFailed reports a failed verdict; main maps it to exit status 2.
var errFailed = errors.New("reproduction checks failed")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdareport:", err)
	}
	os.Exit(exitCode(err))
}

func run(args []string, out io.Writer) error { return cli.Run("sdareport", parse, args, out) }

// exitCode maps run's error to the process exit status.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFailed):
		return 2
	default:
		return 1
	}
}

// plan is a validated sdareport invocation.
type plan struct {
	opts          exp.Options
	quick         bool
	blame, oracle bool
}

// parse registers the flags on fs and reads and validates args; it runs
// nothing.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	fid := cli.AddFidelity(fs)
	p := &plan{}
	fs.BoolVar(&p.blame, "blame", false, "append a miss-cause attribution section (UD vs DIV-1 baseline)")
	fs.BoolVar(&p.oracle, "oracle", false, "append an analytic response-time oracle audit (UD vs DIV-1 baseline)")
	if err := cli.Parse(fs, args, cli.Rule{}); err != nil {
		return nil, err
	}
	p.opts, p.quick = fid.Options(), fid.Quick
	if err := exp.BaselineConfig(p.opts).Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Execute runs the checks and writes the report; a failed verdict at
// full fidelity returns errFailed.
func (p *plan) Execute(out io.Writer) error {
	res, err := report.Check(p.opts)
	if err != nil {
		return err
	}
	fmt.Fprint(out, report.Markdown(res, p.opts))
	if p.blame {
		cells, err := report.BlameCheck(p.opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, report.BlameMarkdown(cells))
	}
	oraclePassed := true
	if p.oracle {
		cells, err := report.OracleCheck(p.opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, report.OracleMarkdown(cells))
		oraclePassed = report.OraclePassed(cells)
	}
	if (!res.Passed() || !oraclePassed) && !p.quick {
		return errFailed
	}
	return nil
}
