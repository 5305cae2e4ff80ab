package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestListExperiments(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig5", "fig15", "table1", "table2", "svcdist", "network"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestStaticTables(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-exp", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Earliest Deadline First") {
		t.Errorf("table1 output wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-exp", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "EQF-DIV1") {
		t.Errorf("table2 output wrong:\n%s", buf.String())
	}
}

func TestRunOneExperimentAllFormats(t *testing.T) {
	for _, format := range []string{"text", "csv", "json", "svg"} {
		var buf strings.Builder
		err := run([]string{
			"-exp", "gfdelta", "-format", format,
			"-duration", "1500", "-reps", "1", "-quick",
		}, &buf)
		if err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Errorf("format %s produced no output", format)
		}
	}
}

func TestErrors(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{}, &buf); err == nil {
		t.Error("no experiment selected should error")
	}
	if err := run([]string{"-exp", "bogus"}, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-exp", "gfdelta", "-format", "bogus", "-quick", "-duration", "500"}, &buf); err == nil {
		t.Error("unknown format should error")
	}
}

// TestTelemetryOutput pins what the observed baseline cell prints: the
// merged summary whenever -obs or -serve is set, and the exported files
// only with -obs.
func TestTelemetryOutput(t *testing.T) {
	base := []string{"-quick", "-duration", "300", "-reps", "1"}
	for _, tc := range []struct {
		args     []string
		exported bool
	}{
		{[]string{"-obs", t.TempDir()}, true},
		{[]string{"-serve", "127.0.0.1:0"}, false},
	} {
		var out strings.Builder
		if err := run(append(append([]string(nil), base...), tc.args...), &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(out.String(), "\nscheduling   enqueue") {
			t.Errorf("%v: no summary:\n%s", tc.args, out.String())
		}
		if got := strings.Contains(out.String(), "telemetry exported: "); got != tc.exported {
			t.Errorf("%v: export listed %v, want %v:\n%s", tc.args, got, tc.exported, out.String())
		}
	}
}

// TestFlagProbes pins the flag rule: an explicitly set zero, negative or
// non-finite value is an error naming the flag, never a silent fallback
// to the default.
func TestFlagProbes(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-reps", []string{"-exp", "table1", "-reps", "0"}},
		{"-duration", []string{"-exp", "table1", "-duration", "-5"}},
		{"-duration", []string{"-exp", "table1", "-duration", "nan"}},
		{"-workers", []string{"-exp", "table1", "-workers", "-1"}},
		{"-serve-every", []string{"-exp", "table1", "-serve-every", "-4"}},
		{"-format", []string{"-exp", "fig7", "-format", "bogus"}},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestBadExperimentWritesNothing: an unknown -exp fails in the parse
// stage, before the -obs run writes its bundle.
func TestBadExperimentWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "obs")
	err := run([]string{"-quick", "-obs", dir, "-exp", "bogus"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-exp") {
		t.Fatalf("err = %v, want an error naming -exp", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("-obs directory exists after a failed parse: %v", err)
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names: it must never panic, and every plan it accepts must be bounded.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	f.Add([]byte{})
	f.Add([]byte{0, 38, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdaexp", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil || p.list {
			return
		}
		if err := cli.Bounded(p.observed, false); err != nil {
			t.Fatalf("accepted an unbounded plan: %v", err)
		}
		if !p.observed.Obs.Enabled {
			t.Fatal("observed baseline runs without telemetry")
		}
	})
}
