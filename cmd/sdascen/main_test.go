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

func scenarioDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	body := `{
		"name": "tiny", "description": "smoke scenario", "seed": 5, "duration": 200,
		"workload": {"k": 3, "load": 0.5, "frac_local": 0.8, "n": 2},
		"events": [{"at": 50, "action": "crash", "node": 1},
		           {"at": 90, "action": "restart", "node": 1}],
		"assert": {"utilization_min": 0.1}
	}`
	if err := os.WriteFile(filepath.Join(dir, "tiny.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestBlessThenPass(t *testing.T) {
	dir := scenarioDir(t)
	var out strings.Builder
	if err := run([]string{"-dir", dir, "-bless"}, &out); err != nil {
		t.Fatalf("bless: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "golden.txt")); err != nil {
		t.Fatalf("golden.txt not written: %v", err)
	}
	out.Reset()
	if err := run([]string{"-dir", dir, "-v"}, &out); err != nil {
		t.Fatalf("verify after bless: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS tiny") {
		t.Errorf("output lacks PASS line:\n%s", out.String())
	}
}

func TestHashDriftFails(t *testing.T) {
	dir := scenarioDir(t)
	golden := filepath.Join(dir, "golden.txt")
	if err := os.WriteFile(golden, []byte("tiny 0000000000000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-dir", dir}, &out)
	if err == nil {
		t.Fatalf("want failure on hash drift, got pass:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "differs from golden") {
		t.Errorf("output lacks drift message:\n%s", out.String())
	}
}

func TestMissingGoldenFails(t *testing.T) {
	dir := scenarioDir(t)
	var out strings.Builder
	if err := run([]string{"-dir", dir}, &out); err == nil {
		t.Fatalf("want failure without golden hashes, got pass:\n%s", out.String())
	}
}

func TestUnknownScenarioName(t *testing.T) {
	dir := scenarioDir(t)
	var out strings.Builder
	if err := run([]string{"-dir", dir, "nope"}, &out); err == nil {
		t.Fatal("want error for unknown scenario name")
	}
}

func TestList(t *testing.T) {
	dir := scenarioDir(t)
	var out strings.Builder
	if err := run([]string{"-dir", dir, "-list"}, &out); err != nil {
		t.Fatalf("list: %v", err)
	}
	if !strings.Contains(out.String(), "tiny") || !strings.Contains(out.String(), "smoke scenario") {
		t.Errorf("list output incomplete:\n%s", out.String())
	}
}

// TestRepoSuitePasses runs the real checked-in suite end to end, exactly
// as CI does.
func TestRepoSuitePasses(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-dir", filepath.Join("..", "..", "testdata", "scenarios")}, &out); err != nil {
		t.Fatalf("repo scenario suite failed: %v\n%s", err, out.String())
	}
}

// TestFlagProbes pins the flag rule: an explicitly set zero, negative or
// non-finite value is an error naming the flag, never a silent fallback
// to the default.
func TestFlagProbes(t *testing.T) {
	dir := scenarioDir(t)
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-stress-scale", []string{"-stress-scale", "0"}},
		{"-stress-scale", []string{"-stress-scale", "-3"}},
		{"-stress-workers", []string{"-stress-workers", "-2"}},
		{"-serve-every", []string{"-serve-every", "-4"}},
		{"-obs-max-spans", []string{"-obs-max-spans", "0"}},
	} {
		var out strings.Builder
		err := run(append([]string{"-dir", dir}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names over the shipped scenario directory: it must never panic, and
// every plan it accepts must be bounded.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	repo := filepath.Join("..", "..", "testdata", "scenarios")
	f.Add([]byte{})
	f.Add([]byte{9, 2, 10, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdascen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, append([]string{"-dir", repo}, cli.Argv(names, data)...))
		if err != nil {
			return
		}
		if p.stressScale < 1 || p.stressWorkers < 0 || p.tel.Options().MaxSpans > cli.MaxSpans || len(p.scs) == 0 {
			t.Fatalf("accepted an unbounded plan: scale %d, workers %d, spans %d, %d scenarios",
				p.stressScale, p.stressWorkers, p.tel.Options().MaxSpans, len(p.scs))
		}
	})
}
