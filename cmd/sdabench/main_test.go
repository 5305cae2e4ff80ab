package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleOutput mirrors a GOMAXPROCS=1 run: no -<procs> suffixes, and a
// sub-benchmark whose name genuinely ends in "-1".
const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulationBaseline 	      24	  15142334 ns/op	     27227 events/op	 6612602 B/op	  126824 allocs/op
BenchmarkEngineEventChurn   	 1203421	       318.5 ns/op	      48 B/op	       1 allocs/op
BenchmarkStrategyAssignment/DIV-1      	96069963	         4.245 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	4.449s
`

func TestParseBench(t *testing.T) {
	got := parseBench(sampleOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	base, ok := got["BenchmarkSimulationBaseline"]
	if !ok {
		t.Fatal("missing BenchmarkSimulationBaseline")
	}
	if base.Iterations != 24 {
		t.Errorf("iterations = %d, want 24", base.Iterations)
	}
	if base.Metrics["ns/op"] != 15142334 {
		t.Errorf("ns/op = %v", base.Metrics["ns/op"])
	}
	if base.Metrics["events/op"] != 27227 {
		t.Errorf("custom metric events/op = %v, want 27227", base.Metrics["events/op"])
	}
	if base.Metrics["allocs/op"] != 126824 {
		t.Errorf("allocs/op = %v", base.Metrics["allocs/op"])
	}
	// Without a majority GOMAXPROCS suffix, names — including ones that
	// genuinely end in "-<n>" — must survive untouched.
	if _, ok := got["BenchmarkStrategyAssignment/DIV-1"]; !ok {
		t.Errorf("sub-benchmark name mangled: %v", got)
	}
}

// suffixedOutput mirrors a GOMAXPROCS=8 run: every line carries -8, which
// must be stripped — but only that shared suffix, so DIV-1 keeps its -1.
const suffixedOutput = `
BenchmarkSimulationBaseline-8 	      24	  15142334 ns/op	     27227 events/op	 6612602 B/op	  126824 allocs/op
BenchmarkEngineEventChurn-8   	 1203421	       318.5 ns/op	      48 B/op	       1 allocs/op
BenchmarkStrategyAssignment/DIV-1-8    	96069963	         4.245 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseBenchStripsProcsSuffix(t *testing.T) {
	got := parseBench(suffixedOutput)
	for _, want := range []string{
		"BenchmarkSimulationBaseline",
		"BenchmarkEngineEventChurn",
		"BenchmarkStrategyAssignment/DIV-1",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing %q after suffix stripping: %v", want, got)
		}
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	if got := parseBench("PASS\nok repro 1.2s\nBenchmark 3 nonsense\n"); len(got) != 0 {
		t.Errorf("parsed %d benchmarks from noise, want 0", len(got))
	}
}

func writeTestSnapshot(t *testing.T, path string, benchmarks map[string]Measurement) {
	t.Helper()
	b, err := json.Marshal(Snapshot{Recorded: "test", Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotNumbering(t *testing.T) {
	dir := t.TempDir()
	path, err := nextSnapshotPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_1.json" {
		t.Errorf("first snapshot = %s, want BENCH_1.json", path)
	}
	writeTestSnapshot(t, filepath.Join(dir, "BENCH_1.json"), nil)
	writeTestSnapshot(t, filepath.Join(dir, "BENCH_7.json"),
		map[string]Measurement{"BenchmarkX": {Metrics: map[string]float64{"ns/op": 10}}})
	path, err = nextSnapshotPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_8.json" {
		t.Errorf("next snapshot = %s, want BENCH_8.json", path)
	}
	latest, latestPath, err := latestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latestPath) != "BENCH_7.json" {
		t.Errorf("latest = %s, want BENCH_7.json", latestPath)
	}
	if latest.Benchmarks["BenchmarkX"].Metrics["ns/op"] != 10 {
		t.Error("latest snapshot content not loaded")
	}
}

func TestLatestSnapshotEmpty(t *testing.T) {
	s, path, err := latestSnapshot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s != nil || path != "" {
		t.Errorf("empty dir returned %v at %q", s, path)
	}
}

func TestCompareSnapshots(t *testing.T) {
	prev := &Snapshot{Benchmarks: map[string]Measurement{
		"BenchmarkFast":    {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1}},
		"BenchmarkSlow":    {Metrics: map[string]float64{"ns/op": 100}},
		"BenchmarkDropped": {Metrics: map[string]float64{"ns/op": 5}},
	}}
	cur := &Snapshot{Benchmarks: map[string]Measurement{
		"BenchmarkFast": {Metrics: map[string]float64{"ns/op": 90, "allocs/op": 0}},
		"BenchmarkSlow": {Metrics: map[string]float64{"ns/op": 140}},
		"BenchmarkNew":  {Metrics: map[string]float64{"ns/op": 7}},
	}}
	var buf strings.Builder
	regressed, allocRegressed := compareSnapshots(&buf, prev, cur, "BENCH_1.json", 25, 10)
	if len(regressed) != 1 || regressed[0] != "BenchmarkSlow" {
		t.Errorf("regressions = %v, want [BenchmarkSlow]", regressed)
	}
	if len(allocRegressed) != 0 {
		t.Errorf("alloc regressions = %v, want none", allocRegressed)
	}
	out := buf.String()
	for _, want := range []string{"REGRESSED", "new benchmark", "dropped", "allocs/op 1 -> 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// A 40% threshold lets the slow benchmark pass.
	if regressed, _ := compareSnapshots(&strings.Builder{}, prev, cur, "x", 45, 10); len(regressed) != 0 {
		t.Errorf("regressions at 45%% threshold = %v, want none", regressed)
	}
}

func TestCompareSnapshotsAllocGate(t *testing.T) {
	prev := &Snapshot{Benchmarks: map[string]Measurement{
		"BenchmarkLeaky": {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1000}},
		"BenchmarkZero":  {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}},
		"BenchmarkNoMem": {Metrics: map[string]float64{"ns/op": 100}},
	}}
	cur := &Snapshot{Benchmarks: map[string]Measurement{
		"BenchmarkLeaky": {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1200}},
		"BenchmarkZero":  {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1}},
		"BenchmarkNoMem": {Metrics: map[string]float64{"ns/op": 100}},
	}}
	var buf strings.Builder
	_, allocRegressed := compareSnapshots(&buf, prev, cur, "x", 25, 10)
	// 1000 -> 1200 is a 20% jump; 0 -> 1 sits inside the one-alloc grace;
	// a benchmark with no memory metrics is skipped.
	if len(allocRegressed) != 1 || allocRegressed[0] != "BenchmarkLeaky" {
		t.Fatalf("alloc regressions = %v, want [BenchmarkLeaky]", allocRegressed)
	}
	if !strings.Contains(buf.String(), "ALLOCS REGRESSED") {
		t.Errorf("report missing ALLOCS REGRESSED:\n%s", buf.String())
	}
	// 0 -> 2 exceeds the grace allocation.
	cur.Benchmarks["BenchmarkZero"] = Measurement{Metrics: map[string]float64{"ns/op": 100, "allocs/op": 2}}
	_, allocRegressed = compareSnapshots(&strings.Builder{}, prev, cur, "x", 25, 10)
	if len(allocRegressed) != 2 {
		t.Fatalf("alloc regressions = %v, want BenchmarkLeaky and BenchmarkZero", allocRegressed)
	}
}

// TestCompareSnapshotsBytesGate checks the B/op gate: a benchmark that
// keeps its allocation count but grows each allocation fails, while
// growth within the percentage or the 1 KiB slack passes.
func TestCompareSnapshotsBytesGate(t *testing.T) {
	mem := func(allocs, bytes float64) Measurement {
		return Measurement{Metrics: map[string]float64{"ns/op": 100, "allocs/op": allocs, "B/op": bytes}}
	}
	prev := &Snapshot{Benchmarks: map[string]Measurement{
		"BenchmarkFatter":    mem(5000, 480000),
		"BenchmarkAmortised": mem(0, 0),
		"BenchmarkWithin":    mem(1, 10000),
		"BenchmarkSlimmer":   mem(5000, 26880000),
	}}
	cur := &Snapshot{Benchmarks: map[string]Measurement{
		"BenchmarkFatter":    mem(5000, 26880000),
		"BenchmarkAmortised": mem(0, 900),   // inside the slack
		"BenchmarkWithin":    mem(1, 12000), // 10% + 1 KiB allows 12024
		"BenchmarkSlimmer":   mem(5000, 480000),
	}}
	var buf strings.Builder
	_, allocRegressed := compareSnapshots(&buf, prev, cur, "x", 25, 10)
	if len(allocRegressed) != 1 || allocRegressed[0] != "BenchmarkFatter" {
		t.Fatalf("memory regressions = %v, want [BenchmarkFatter]", allocRegressed)
	}
	out := buf.String()
	for _, want := range []string{"BYTES REGRESSED (B/op 480000 -> 2.688e+07)", "(B/op 2.688e+07 -> 480000)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ALLOCS REGRESSED") {
		t.Errorf("allocs/op gate tripped on an unchanged count:\n%s", out)
	}
	cur.Benchmarks["BenchmarkWithin"] = mem(1, 12100)
	if _, allocRegressed := compareSnapshots(&strings.Builder{}, prev, cur, "x", 25, 10); len(allocRegressed) != 2 {
		t.Fatalf("memory regressions = %v, want BenchmarkFatter and BenchmarkWithin", allocRegressed)
	}
}

// TestRunWithInputFixture drives the full flow (parse -> compare ->
// record) without shelling out to the go tool.
func TestRunWithInputFixture(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "raw.txt")
	if err := os.WriteFile(inPath, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-input", inPath, "-dir", dir, "-record", "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_1.json")); err != nil {
		t.Fatalf("snapshot not recorded: %v", err)
	}

	// A second identical run compared against the first: no regressions.
	buf.Reset()
	if err := run([]string{"-input", inPath, "-dir", dir, "-compare", "-q"}, &buf); err != nil {
		t.Fatalf("identical run reported regression: %v\n%s", err, buf.String())
	}

	// A slowed-down run must fail ... unless report-only.
	slow := strings.ReplaceAll(sampleOutput, "318.5 ns/op", "9999.0 ns/op")
	slowPath := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-input", slowPath, "-dir", dir, "-compare", "-q"}, io.Discard); err == nil {
		t.Fatal("regressed run did not fail")
	}
	if err := run([]string{"-input", slowPath, "-dir", dir, "-compare", "-report-only", "-q"}, io.Discard); err != nil {
		t.Fatalf("report-only run failed: %v", err)
	}

	// An allocs/op regression must fail even under -report-only.
	leaky := strings.ReplaceAll(sampleOutput, "126824 allocs/op", "150000 allocs/op")
	leakyPath := filepath.Join(dir, "leaky.txt")
	if err := os.WriteFile(leakyPath, []byte(leaky), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-input", leakyPath, "-dir", dir, "-compare", "-report-only", "-q"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("alloc-regressed report-only run: err = %v, want allocs/op failure", err)
	}
}

// obsOutput carries the two benchmarks whose ns/op ratio is the
// telemetry overhead.
const obsOutput = `
BenchmarkSimulationObsOff 	      24	   4000000 ns/op	 2144880 B/op	   17135 allocs/op
BenchmarkSimulationObsOn  	       8	  10000000 ns/op	 7000000 B/op	   17352 allocs/op
PASS
`

// TestTelemetryRatio checks the report-only telemetry overhead line: the
// ratio of one run, the latest snapshot's beside it under -compare, and
// silence when either benchmark is missing.
func TestTelemetryRatio(t *testing.T) {
	dir := t.TempDir()
	prev := Snapshot{Benchmarks: map[string]Measurement{
		obsOnBench:  {Metrics: map[string]float64{"ns/op": 13219880}},
		obsOffBench: {Metrics: map[string]float64{"ns/op": 4717641}},
	}}
	if err := writeSnapshot(filepath.Join(dir, "BENCH_10.json"), &prev); err != nil {
		t.Fatal(err)
	}
	inPath := filepath.Join(dir, "raw.txt")
	if err := os.WriteFile(inPath, []byte(obsOutput), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := run([]string{"-input", inPath, "-dir", dir, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	want := "telemetry overhead: BenchmarkSimulationObsOn / BenchmarkSimulationObsOff = 2.50x ns/op\n"
	if buf.String() != want {
		t.Errorf("without -compare:\ngot  %q\nwant %q", buf.String(), want)
	}

	buf.Reset()
	if err := run([]string{"-input", inPath, "-dir", dir, "-compare", "-report-only", "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	want = "telemetry overhead: BenchmarkSimulationObsOn / BenchmarkSimulationObsOff = 2.50x ns/op (BENCH_10.json: 2.80x)\n"
	if !strings.HasSuffix(buf.String(), want) {
		t.Errorf("with -compare:\ngot  %q\nwant suffix %q", buf.String(), want)
	}

	buf.Reset()
	noObs := filepath.Join(dir, "noobs.txt")
	if err := os.WriteFile(noObs, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-input", noObs, "-dir", dir, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "telemetry overhead") {
		t.Errorf("ratio printed without both benchmarks: %q", buf.String())
	}
}

// TestFlagProbes: a negative regression threshold is an error naming the
// flag, before any benchmark runs; zero is a real threshold.
func TestFlagProbes(t *testing.T) {
	for _, name := range []string{"-max-regress", "-max-alloc-regress"} {
		err := run([]string{name, "-5", "-input", "missing.txt"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s -5: err = %v, want an error naming %s", name, err, name)
		}
		if err := run([]string{name, "0", "-input", "missing.txt"}, io.Discard); err == nil || strings.Contains(err.Error(), name) {
			t.Errorf("%s 0: err = %v, want only the missing input", name, err)
		}
	}
}
