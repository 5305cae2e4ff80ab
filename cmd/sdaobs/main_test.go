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
	"repro/internal/obs/attrib"
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
	for _, want := range []string{"# TYPE sda_sched_enqueues_total counter", "# TYPE sda_node_queue_depth gauge", "# TYPE sda_slack_quantiles summary"} {
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
			"-obs-max-spans", "128",
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

// TestSyntheticTraceExport: a short synthetic run writes the causal
// trace as one tree per line, each with a root and a span, and as a
// Chrome trace-event document with events.
func TestSyntheticTraceExport(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-duration", "200", "-warmup", "0"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	trees, err := os.ReadFile(filepath.Join(dir, "tracetree.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(trees), "\n"), "\n")
	for i, line := range lines {
		var tree struct {
			Root  uint64 `json:"root"`
			Spans int    `json:"spans"`
		}
		if err := json.Unmarshal([]byte(line), &tree); err != nil {
			t.Fatalf("tree line %d: %v", i+1, err)
		}
		if tree.Root == 0 || tree.Spans < 1 {
			t.Errorf("tree line %d: root=%d spans=%d", i+1, tree.Root, tree.Spans)
		}
	}
	chrome, err := os.ReadFile(filepath.Join(dir, "trace.chrome.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Errorf("chrome export: displayTimeUnit=%q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
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
		{"-obs-max-spans", []string{"-obs-max-spans", "-1"}},
		{"-from", []string{"-from", t.TempDir(), "-load", "0.5"}},
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
	// -from=obs-out alone, then with -load=0.5.
	f.Add([]byte{1, 207, 'o', 'b', 's', '-', 'o', 'u', 't'})
	f.Add([]byte{1, 207, 'o', 'b', 's', '-', 'o', 'u', 't', 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdaobs", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil {
			return
		}
		if p.from != "" {
			// A re-derivation runs nothing, so it takes no run flag.
			fs.Visit(func(f *flag.Flag) {
				if f.Name != "from" && f.Name != "out" {
					t.Fatalf("accepted -from with -%s", f.Name)
				}
			})
			return
		}
		if err := cli.Bounded(p.cfg, false); err != nil || !p.cfg.Obs.Enabled {
			t.Fatalf("accepted an unbounded plan (telemetry %v): %v", p.cfg.Obs.Enabled, err)
		}
	})
}

// writeBundle writes recs as the spans.jsonl of a fresh bundle
// directory, with no edge or exemplar log, and returns the directory.
func writeBundle(t *testing.T, recs []obs.Record) string {
	t.Helper()
	var b strings.Builder
	for _, r := range recs {
		if err := obs.WriteRecord(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, obs.SpansFile), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fixture is a bundle whose span log has one straggler miss and one hit.
func fixture(t *testing.T) string {
	f := func(v float64) *float64 { return &v }
	return writeBundle(t, []obs.Record{
		{Type: "span", Kind: "global", Task: "G1", Node: -1, ID: 1,
			Start: f(0), End: f(20), RealDL: f(12), Missed: true},
		{Type: "span", Kind: "subtask", Task: "G1.s1", Node: 1, ID: 2, Root: 1,
			Start: f(0), End: f(20), Exec: f(4), Pex: f(4)},
		{Type: "span", Kind: "subtask", Task: "G1.s2", Node: 2, ID: 3, Root: 1,
			Start: f(0), End: f(6), Exec: f(4), Pex: f(4)},
		{Type: "span", Kind: "global", Task: "G2", Node: -1, ID: 4,
			Start: f(0), End: f(8), RealDL: f(12)},
	})
}

// rederiveFile runs sdaobs -from bundle into a fresh directory and returns
// the named derived file.
func rederiveFile(t *testing.T, bundle, name string) []byte {
	t.Helper()
	out := t.TempDir()
	mustRun(t, "-from", bundle, "-out", out)
	b, err := os.ReadFile(filepath.Join(out, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFromMarkdownReportIsDeterministic(t *testing.T) {
	bundle := fixture(t)
	r1, r2 := string(rederiveFile(t, bundle, "blame.md")), string(rederiveFile(t, bundle, "blame.md"))
	if r1 != r2 {
		t.Fatalf("two re-derivations of the same bundle differ")
	}
	for _, want := range []string{
		"# Miss-cause attribution",
		"sibling-straggler",
		"## Cause mix",
		"G1.s1 @ node 1",
	} {
		if !strings.Contains(r1, want) {
			t.Errorf("report missing %q:\n%s", want, r1)
		}
	}
}

func TestFromJSONReportDecodesWithExactDecomposition(t *testing.T) {
	var rpt attrib.Report
	if err := json.Unmarshal(rederiveFile(t, fixture(t), "blame.json"), &rpt); err != nil {
		t.Fatalf("not a report: %v", err)
	}
	if rpt.MissedGlobals != 1 || rpt.Globals != 2 {
		t.Fatalf("counts: %+v", rpt)
	}
	m := rpt.Misses[0]
	if m.Cause == "" {
		t.Fatalf("miss without a primary cause: %+v", m)
	}
	if got := m.Wait + m.Overrun + m.SlackDeficit; got != m.Lateness {
		t.Fatalf("decomposition %g != lateness %g", got, m.Lateness)
	}
}

// TestFromV1Input: a span log of the original unversioned schema is
// accepted, and the report says which schema it read.
func TestFromV1Input(t *testing.T) {
	v1 := `{"type":"span","kind":"global","task":"G","node":2,"id":1,"start":0,"end":9,"vdl":5,"real_dl":5,"slack":2,"lateness":4,"missed":true}` + "\n"
	bundle := t.TempDir()
	if err := os.WriteFile(filepath.Join(bundle, obs.SpansFile), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if body := rederiveFile(t, bundle, "blame.md"); !strings.Contains(string(body), "schema 1") {
		t.Fatalf("v1 report missing schema note:\n%s", body)
	}
}

// TestFromBadInputs: a bundle without a span log, or with an empty or a
// malformed one, is an error, not an empty report.
func TestFromBadInputs(t *testing.T) {
	empty := writeBundle(t, nil)
	malformed := t.TempDir()
	if err := os.WriteFile(filepath.Join(malformed, obs.SpansFile), []byte("{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{t.TempDir(), empty, malformed} {
		if err := run([]string{"-from", dir, "-out", t.TempDir()}, io.Discard); err == nil {
			t.Errorf("-from %s: accepted", dir)
		}
	}
}

// TestFromBadOutputPath: an -out that cannot be created surfaces as an
// error, not a partial success.
func TestFromBadOutputPath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-from", fixture(t), "-out", filepath.Join(file, "out")}, io.Discard); err == nil {
		t.Fatal("-from with an unwritable -out succeeded")
	}
}

// TestFromFlagConflicts: -from takes no run flag, and the conflict is
// found at parse time.
func TestFromFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-from", "b", "-load", "0.5"},
		{"-from", "b", "-reps", "3"},
		{"-from", "b", "-scenario", "x.json"},
		{"-from", "b", "-obs-max-spans", "64"},
		{"-seed", "3", "-from", "b"},
	} {
		fs := flag.NewFlagSet("sdaobs", flag.ContinueOnError)
		_, err := parse(fs, args)
		if err == nil || !strings.Contains(err.Error(), "conflicts with -from") {
			t.Errorf("parse(%v) = %v, want a conflict with -from", args, err)
		}
	}
	if _, err := parse(flag.NewFlagSet("sdaobs", flag.ContinueOnError), []string{"-from", "b", "-out", "c"}); err != nil {
		t.Errorf("-from with -out: %v", err)
	}
}
