package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/exp"
)

func TestReportQuickRuns(t *testing.T) {
	if err := run([]string{"-quick", "-duration", "800", "-reps", "1", "-seed", "5"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestReportRendersMarkdown(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-quick", "-duration", "800", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Reproduction report", "Quantitative anchors", "Qualitative claims"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportOracleSection(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-quick", "-duration", "800", "-reps", "1", "-oracle"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## Analytic oracle audit", "| UD |", "| DIV-1 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Quick-fidelity anchors may FAIL; the oracle section itself must not.
	_, section, _ := strings.Cut(out, "## Analytic oracle audit")
	if strings.Contains(section, "FAIL") {
		t.Errorf("oracle audit failed:\n%s", section)
	}
}

// TestExitCode pins how main maps run's result to the exit status: a
// failed verdict is 2, any other error 1.
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errFailed, 2},
		{fmt.Errorf("oracle: %w", errFailed), 2},
		{errors.New("flag -duration NaN: must be finite"), 1},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestFlagProbes: bad fidelity overrides are errors naming the flag, not
// a silent fallback to the default fidelity.
func TestFlagProbes(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-duration", []string{"-duration", "nan"}},
		{"-duration", []string{"-duration", "0"}},
		{"-reps", []string{"-reps", "-1"}},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names: it must never panic, and every plan it accepts must be bounded.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	f.Add([]byte{})
	f.Add([]byte{2, 1, 3, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdareport", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil {
			return
		}
		if err := cli.Bounded(exp.BaselineConfig(p.opts), false); err != nil {
			t.Fatalf("accepted an unbounded plan: %v", err)
		}
	})
}
