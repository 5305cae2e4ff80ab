package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
)

// TestScenarioExport drives sdaobs over a shipped scenario and checks
// that every export artifact is produced and well-formed.
func TestScenarioExport(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-scenario", "../../testdata/scenarios/baseline_div.json",
		"-out", dir,
		"-sample-every", "25",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "hash ") {
		t.Errorf("output missing trace hash:\n%s", out.String())
	}

	spans, err := os.ReadFile(filepath.Join(dir, obs.SpansFile))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(spans)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var rec obs.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("spans.jsonl line %d invalid: %v", lines, err)
		}
		if rec.Type != "span" {
			t.Fatalf("spans.jsonl line %d has type %q", lines, rec.Type)
		}
	}
	if lines == 0 {
		t.Fatalf("spans.jsonl is empty")
	}

	prom, err := os.ReadFile(filepath.Join(dir, obs.MetricsFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE sda_sched_enqueues_total counter", "# TYPE sda_node_queue_depth gauge", "sda_assigned_slack_bucket"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics.prom missing %q", want)
		}
	}

	csv, err := os.ReadFile(filepath.Join(dir, obs.TimeSeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "time,queue_node0") {
		t.Errorf("timeseries.csv header unexpected: %q", strings.SplitN(string(csv), "\n", 2)[0])
	}
	if strings.Count(string(csv), "\n") < 2 {
		t.Errorf("timeseries.csv has no data rows")
	}

	svg, err := os.ReadFile(filepath.Join(dir, obs.DashboardFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg ") {
		t.Errorf("dashboard.svg does not start with an <svg> element")
	}

	// The export is deterministic: a second run yields identical bytes.
	dir2 := t.TempDir()
	var out2 strings.Builder
	if err := run([]string{
		"-scenario", "../../testdata/scenarios/baseline_div.json",
		"-out", dir2,
		"-sample-every", "25",
	}, &out2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.SpansFile, obs.MetricsFile, obs.TimeSeriesFile, obs.DashboardFile, obs.SummaryFile} {
		a, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between identical runs", name)
		}
	}
}

// TestSyntheticMergedExport exercises the multi-replication synthetic
// mode: the export is the cross-replication merge (exemplars included)
// and its bytes do not depend on the worker count.
func TestSyntheticMergedExport(t *testing.T) {
	export := func(workers string) map[string]string {
		dir := t.TempDir()
		var out strings.Builder
		err := run([]string{
			"-out", dir,
			"-load", "0.6",
			"-duration", "2000",
			"-warmup", "100",
			"-reps", "3",
			"-workers", workers,
			"-max-spans", "128",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		files := map[string]string{}
		for _, name := range []string{obs.SpansFile, obs.ExemplarsFile, obs.MetricsFile,
			obs.DashboardFile, obs.SummaryFile, "blame.md", "blame.json"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("missing merged export %s: %v", name, err)
			}
			if len(b) == 0 {
				t.Fatalf("merged export %s is empty", name)
			}
			files[name] = string(b)
		}
		return files
	}
	seq, par := export("1"), export("3")
	for name, want := range seq {
		if par[name] != want {
			t.Errorf("%s differs between -workers 1 and -workers 3", name)
		}
	}
}

// TestSyntheticExport exercises the non-scenario mode end to end.
func TestSyntheticExport(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-out", dir,
		"-load", "0.6",
		"-duration", "3000",
		"-warmup", "100",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "md_local") {
		t.Errorf("output missing replication stats:\n%s", out.String())
	}
	for _, name := range []string{obs.SpansFile, obs.MetricsFile, obs.TimeSeriesFile, obs.DashboardFile, obs.SummaryFile} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing export %s: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("export %s is empty", name)
		}
	}
}

// TestFlagProbes pins the flag rule on the sampler and span flags. The
// first four once hung or ran out of memory, so each case runs under a
// deadline instead of hanging the suite.
func TestFlagProbes(t *testing.T) {
	scen := filepath.Join("..", "..", "testdata", "scenarios", "baseline_div.json")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-sample-every", []string{"-sample-every", "1e-300"}},
		{"-sample-every", []string{"-sample-every", "nan"}},
		{"-sample-every", []string{"-scenario", scen, "-sample-every", "1e-300"}},
		{"-max-samples", []string{"-max-samples", "100000000000"}},
		{"-sample-every", []string{"-sample-every", "0"}},
		{"-reps", []string{"-reps", "0"}},
		{"-max-spans", []string{"-max-spans", "-1"}},
	} {
		args := append([]string{"-out", t.TempDir()}, tc.args...)
		done := make(chan error, 1)
		go func() { done <- run(args, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: still running after 30s", tc.args)
		}
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names: it must never panic, and every plan it accepts must be bounded.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	f.Add([]byte{})
	f.Add([]byte{12, 7, 13, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdaobs", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil {
			return
		}
		if err := cli.Bounded(p.cfg); err != nil || !p.cfg.Obs.Enabled {
			t.Fatalf("accepted an unbounded plan (telemetry %v): %v", p.cfg.Obs.Enabled, err)
		}
	})
}
