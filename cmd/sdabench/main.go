// Command sdabench records and compares benchmark-trajectory snapshots.
//
// A snapshot (BENCH_<n>.json at the repository root) captures ns/op,
// B/op, allocs/op and custom metrics (e.g. events/op) for the kernel and
// simulator benchmarks, so performance changes are measured and guarded
// instead of guessed. The trajectory is the committed sequence BENCH_1,
// BENCH_2, ...: each perf-relevant change appends one snapshot and the
// comparison mode fails the build when a benchmark regresses by more than
// a threshold against the latest committed snapshot. -record and
// -compare run every benchmark five times (`go test -count 5`) and store
// and compare the median, with the fastest and slowest ns/op beside it;
// older single-run snapshots still load and compare. Two thresholds
// apply: -max-regress gates ns/op (skippable with -report-only, since
// wall-clock timings are noisy on shared runners) and -max-alloc-regress
// gates allocs/op and B/op, which are deterministic up to amortised
// set-up costs and therefore enforced even under -report-only.
//
// Examples:
//
//	sdabench                          # run benchmarks, print snapshot JSON
//	sdabench -record                  # ... and write BENCH_<n+1>.json
//	sdabench -compare                 # ... and diff against latest BENCH_*.json
//	sdabench -compare -report-only    # diff; only allocs/op and B/op can fail (CI smoke job)
//	sdabench -input raw.txt -out s.json   # parse saved `go test -bench` output
//
// When a run includes both BenchmarkSimulationObsOn and
// BenchmarkSimulationObsOff, sdabench also prints the telemetry overhead
// ratio, ObsOn ns/op ÷ ObsOff ns/op from that same run, and under
// -compare the latest snapshot's ratio beside it. The ratio is a report,
// never a gate.
//
// Equivalent make targets: `make bench-record`, `make bench-compare`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
)

// defaultBench selects the benchmarks that guard the hot paths: the DES
// kernel (event churn, the hold model at three calendar depths, batch
// bursts), the node queue, the invariant
// checker, the random-number streams, task construction through a slab
// (locals, trees and DAGs), DAG task construction and submission, tree
// submission, the telemetry layers (cross-replication merge, merged
// export, trace-tree build and write, attribution, sketch insert),
// end-to-end simulation
// throughput, and the strategy/parse/plan micro-benchmarks. The
// per-figure experiment benchmarks are excluded to keep the smoke run
// short; pass -bench '.' for everything.
const defaultBench = "BenchmarkEngineEventChurn|BenchmarkEngineHold|BenchmarkNodeQueueChurn|BenchmarkBurstArrival|BenchmarkChecker|BenchmarkRNG|BenchmarkDagBuild|BenchmarkDagSubmit|BenchmarkSubmitGlobal|BenchmarkObsMerge|BenchmarkObsSpanClose|BenchmarkTracetree|BenchmarkAttribAnalyze|BenchmarkSketchAdd|BenchmarkSimulation|BenchmarkStrategyAssignment|BenchmarkEQFAssignment|BenchmarkTaskParse|BenchmarkTaskBuild|BenchmarkPlan"

// Measurement is one benchmark's recorded metrics, keyed the way `go test
// -bench` prints them ("ns/op", "B/op", "allocs/op", "events/op", ...).
// When the run repeated the benchmark, each metric and the iteration
// count are the median over the Samples runs, and NsMin and NsMax are
// the fastest and slowest run's ns/op. Snapshots recorded from a single
// run leave the three fields out.
type Measurement struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    int                `json:"samples,omitempty"`
	NsMin      float64            `json:"ns_min,omitempty"`
	NsMax      float64            `json:"ns_max,omitempty"`
}

// recordCount is how many times -record and -compare run each benchmark
// (`go test -count`): the median of five samples is what they store and
// compare, so one noisy run on a shared host no longer reads as a
// regression.
const recordCount = 5

// Snapshot is the persisted form of one benchmark run.
type Snapshot struct {
	Recorded   string                 `json:"recorded"`
	GoVersion  string                 `json:"go_version"`
	Bench      string                 `json:"bench"`
	Benchtime  string                 `json:"benchtime"`
	Count      int                    `json:"count,omitempty"` // runs per benchmark; absent: one
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdabench", flag.ContinueOnError)
	var (
		bench           = fs.String("bench", defaultBench, "benchmark regex passed to `go test -bench`")
		benchtime       = fs.String("benchtime", "100ms", "per-benchmark time passed to `go test -benchtime`")
		dir             = fs.String("dir", ".", "directory holding BENCH_*.json snapshots (the package to benchmark)")
		input           = fs.String("input", "", "parse raw `go test -bench` output from this file instead of running benchmarks")
		record          = fs.Bool("record", false, "write the snapshot as BENCH_<n+1>.json in -dir")
		outPath         = fs.String("out", "", "write the snapshot to this explicit path")
		compare         = fs.Bool("compare", false, "compare against the latest BENCH_*.json in -dir")
		maxRegress      = fs.Float64("max-regress", 25, "fail -compare when ns/op regresses by more than this percentage")
		maxAllocRegress = fs.Float64("max-alloc-regress", 10, "fail -compare when allocs/op or B/op regresses by more than this percentage (enforced even with -report-only)")
		reportOnly      = fs.Bool("report-only", false, "with -compare: report ns/op regressions but exit 0 (allocs/op and B/op regressions still fail)")
		quiet           = fs.Bool("q", false, "suppress the snapshot JSON on stdout")

		cpuprofile = fs.String("cpuprofile", "", "write the benchmark run's CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write the benchmark run's heap profile to this file")
		exectrace  = fs.String("exectrace", "", "write the benchmark run's execution trace to this file")
	)
	if err := cli.Parse(fs, args, cli.Rule{ZeroOK: []string{"max-regress", "max-alloc-regress"}}); err != nil {
		return err
	}

	count := 1
	if *record || *compare {
		count = recordCount
	}
	var raw []byte
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			return err
		}
		raw = b
	} else {
		prof, err := profileArgs(*cpuprofile, *memprofile, *exectrace)
		if err != nil {
			return err
		}
		b, err := runBenchmarks(*dir, *bench, *benchtime, count, prof)
		if err != nil {
			return err
		}
		raw = b
	}
	snap := Snapshot{
		Recorded:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Benchmarks: parseBench(string(raw)),
	}
	if *input == "" && count > 1 {
		snap.Count = count
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results parsed (regex %q)", *bench)
	}

	// Compare before recording, so a new snapshot never diffs against
	// itself.
	var (
		regressions, allocRegressions []string
		prev                          *Snapshot
		prevPath                      string
	)
	if *compare {
		var err error
		if prev, prevPath, err = latestSnapshot(*dir); err != nil {
			return err
		}
		if prev == nil {
			fmt.Fprintf(out, "compare: no BENCH_*.json snapshot in %s yet; nothing to compare\n", *dir)
		} else {
			regressions, allocRegressions = compareSnapshots(out, prev, &snap, prevPath, *maxRegress, *maxAllocRegress)
		}
	}
	reportTelemetryRatio(out, &snap, prev, prevPath)

	if !*quiet {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return err
		}
	}
	if *outPath != "" {
		if err := writeSnapshot(*outPath, &snap); err != nil {
			return err
		}
	}
	if *record {
		path, err := nextSnapshotPath(*dir)
		if err != nil {
			return err
		}
		if err := writeSnapshot(path, &snap); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %s\n", path)
	}

	// The memory gates hold even under -report-only: allocation counts and
	// sizes are deterministic, so a jump is a real regression, not timing
	// noise.
	if len(allocRegressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed allocs/op or B/op beyond %.0f%%: %s",
			len(allocRegressions), *maxAllocRegress, strings.Join(allocRegressions, ", "))
	}
	if len(regressions) > 0 && !*reportOnly {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%: %s",
			len(regressions), *maxRegress, strings.Join(regressions, ", "))
	}
	return nil
}

// profileArgs turns the profiling flags into `go test` arguments. The go
// tool natively profiles benchmark runs (-cpuprofile and friends); paths
// are made absolute because the child process runs with its own working
// directory (-dir).
func profileArgs(cpu, mem, trace string) ([]string, error) {
	var args []string
	for _, p := range []struct{ flag, path string }{
		{"-cpuprofile", cpu},
		{"-memprofile", mem},
		{"-trace", trace},
	} {
		if p.path == "" {
			continue
		}
		abs, err := filepath.Abs(p.path)
		if err != nil {
			return nil, err
		}
		args = append(args, p.flag, abs)
	}
	return args, nil
}

// runBenchmarks shells out to the go tool, running each benchmark count
// times; the benchmarks live in the root package of the repository.
func runBenchmarks(dir, bench, benchtime string, count int, extra []string) ([]byte, error) {
	args := []string{"test", "-run", "^$",
		"-bench", bench, "-benchmem", "-benchtime", benchtime, "-count", strconv.Itoa(count)}
	args = append(args, extra...)
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	return out, nil
}

// benchLine matches one result line, e.g.
//
//	BenchmarkEngineEventChurn-8   1203421   318.5 ns/op   48 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procsSuffix is a candidate GOMAXPROCS suffix on a benchmark name.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench extracts measurements from `go test -bench` output. Metric
// values come in "<value> <unit>" pairs after the iteration count. A
// benchmark reported more than once (`go test -count`) is stored as the
// median of its runs, with the spread of its ns/op (see Measurement).
//
// The go tool appends "-<GOMAXPROCS>" to every name (absent when
// GOMAXPROCS=1). That suffix is stripped so snapshots from machines with
// different core counts compare by benchmark identity — but only the
// suffix shared by the majority of result lines is treated as the
// GOMAXPROCS tag, so a genuine name ending in "-<n>" (e.g. the DIV-1
// strategy sub-benchmark) survives intact.
func parseBench(output string) map[string]Measurement {
	type row struct {
		name    string
		iters   int64
		metrics map[string]float64
	}
	var rows []row
	suffixCount := make(map[string]int)
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		fields := strings.Fields(m[3])
		metrics := make(map[string]float64, len(fields)/2)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) == 0 {
			continue
		}
		rows = append(rows, row{name: m[1], iters: iters, metrics: metrics})
		if s := procsSuffix.FindString(m[1]); s != "" {
			suffixCount[s]++
		}
	}
	procs := ""
	for s, c := range suffixCount {
		if 2*c > len(rows) {
			procs = s
		}
	}
	runs := make(map[string][]row)
	for _, r := range rows {
		name := r.name
		if procs != "" {
			name = strings.TrimSuffix(name, procs)
		}
		runs[name] = append(runs[name], r)
	}
	res := make(map[string]Measurement, len(runs))
	for name, rs := range runs {
		if len(rs) == 1 {
			res[name] = Measurement{Iterations: rs[0].iters, Metrics: rs[0].metrics}
			continue
		}
		m := Measurement{Metrics: make(map[string]float64), Samples: len(rs)}
		iters := make([]float64, len(rs))
		for i, r := range rs {
			iters[i] = float64(r.iters)
		}
		m.Iterations = int64(median(iters))
		for unit := range rs[0].metrics {
			var vs []float64
			for _, r := range rs {
				if v, ok := r.metrics[unit]; ok {
					vs = append(vs, v)
				}
			}
			m.Metrics[unit] = median(vs)
			if unit == "ns/op" {
				m.NsMin, m.NsMax = slices.Min(vs), slices.Max(vs)
			}
		}
		res[name] = m
	}
	return res
}

// median returns the median of vs (the mean of the middle two for an
// even count); vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// snapshotPattern matches committed trajectory files.
var snapshotPattern = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latestSnapshot loads the highest-numbered BENCH_<n>.json in dir, or
// (nil, "", nil) when the trajectory is still empty.
func latestSnapshot(dir string) (*Snapshot, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := snapshotPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err == nil && n > bestN {
			bestN, best = n, e.Name()
		}
	}
	if bestN < 0 {
		return nil, "", nil
	}
	path := filepath.Join(dir, best)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, "", fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, path, nil
}

// nextSnapshotPath returns the first unused BENCH_<n>.json path in dir.
func nextSnapshotPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	maxN := 0
	for _, e := range entries {
		m := snapshotPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n > maxN {
			maxN = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", maxN+1)), nil
}

func writeSnapshot(path string, s *Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// memGates are the memory metrics compareSnapshots gates at
// maxAllocRegress percent. Each allows an absolute slack on top, so
// benchmarks at or near zero do not flap on amortised set-up costs. The
// B/op gate sees what the count cannot: the same number of allocations,
// each larger.
var memGates = []struct {
	unit, label string
	slack       float64
}{
	{"allocs/op", "ALLOCS", 1},
	{"B/op", "BYTES", 1024},
}

// Benchmarks whose ns/op ratio is the telemetry overhead: one
// replication with telemetry on over the same replication with it off.
const (
	obsOnBench  = "BenchmarkSimulationObsOn"
	obsOffBench = "BenchmarkSimulationObsOff"
)

// telemetryRatio returns ObsOn ns/op ÷ ObsOff ns/op within one snapshot,
// and false when the snapshot lacks either benchmark.
func telemetryRatio(s *Snapshot) (float64, bool) {
	if s == nil {
		return 0, false
	}
	on, off := s.Benchmarks[obsOnBench].Metrics["ns/op"], s.Benchmarks[obsOffBench].Metrics["ns/op"]
	if on <= 0 || off <= 0 {
		return 0, false
	}
	return on / off, true
}

// reportTelemetryRatio prints the telemetry overhead ratio of cur and,
// when prev has one, prev's beside it. It prints nothing when cur lacks
// either benchmark.
func reportTelemetryRatio(out io.Writer, cur, prev *Snapshot, prevPath string) {
	r, ok := telemetryRatio(cur)
	if !ok {
		return
	}
	line := fmt.Sprintf("telemetry overhead: %s / %s = %.2fx ns/op", obsOnBench, obsOffBench, r)
	if pr, ok := telemetryRatio(prev); ok {
		line += fmt.Sprintf(" (%s: %.2fx)", filepath.Base(prevPath), pr)
	}
	fmt.Fprintln(out, line)
}

// compareSnapshots prints a per-benchmark delta table and returns the
// names whose ns/op regressed beyond maxRegress percent and the names
// whose allocs/op or B/op regressed beyond maxAllocRegress percent (see
// memGates). Benchmarks present in only one snapshot are reported but
// never fail the run.
func compareSnapshots(out io.Writer, prev, cur *Snapshot, prevPath string, maxRegress, maxAllocRegress float64) (regressions, allocRegressions []string) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(out, "compare against %s (recorded %s):\n", prevPath, prev.Recorded)
	for _, name := range names {
		curM := cur.Benchmarks[name]
		prevM, ok := prev.Benchmarks[name]
		if !ok {
			fmt.Fprintf(out, "  %-40s new benchmark, no baseline\n", name)
			continue
		}
		oldNs, newNs := prevM.Metrics["ns/op"], curM.Metrics["ns/op"]
		if oldNs <= 0 || newNs <= 0 {
			continue
		}
		delta := (newNs/oldNs - 1) * 100
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			regressions = append(regressions, name)
		}
		line := fmt.Sprintf("  %-40s %12.1f -> %12.1f ns/op  %+7.1f%%  %s",
			name, oldNs, newNs, delta, status)
		if curM.Samples > 1 {
			line += fmt.Sprintf("  (median of %d, %.1f-%.1f)", curM.Samples, curM.NsMin, curM.NsMax)
		}
		memRegressed := false
		for _, g := range memGates {
			o, oOK := prevM.Metrics[g.unit]
			n, nOK := curM.Metrics[g.unit]
			switch {
			case !oOK || !nOK:
			case n > float64(o*(1+maxAllocRegress/100))+g.slack:
				memRegressed = true
				line += fmt.Sprintf("  %s REGRESSED (%s %g -> %g)", g.label, g.unit, o, n)
			case math.Abs(n-o) >= g.slack:
				line += fmt.Sprintf("  (%s %g -> %g)", g.unit, o, n)
			}
		}
		if memRegressed {
			allocRegressions = append(allocRegressions, name)
		}
		fmt.Fprintln(out, line)
	}
	for name := range prev.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			fmt.Fprintf(out, "  %-40s dropped (present in baseline only)\n", name)
		}
	}
	return regressions, allocRegressions
}
