// Command bench is the repository's end-to-end benchmark. It drives the
// simulator through its public Go API on four named workloads, checks
// every output against pinned fingerprints and the simulator's own
// invariants, and prints one line per metric followed by a JSON result.
//
// Run it from the repository root through its build wrapper:
//
//	bash bench/run.sh -workload fig7-sweep -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload fig7-sweep -seed 1 -trace 1   # per-layer metrics
//	bash bench/run.sh -workload all -seed 1                   # every workload, one process each
//	bash bench/run.sh -workload all -repeat 10                # calibration: medians and quartiles
//	bash bench/run.sh -workload all -pin                      # re-record bench/fingerprints.json
//
// See bench/README.md for the workloads, the metric dictionary and the
// calibration behind the bounds in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir is where runs write, relative to the repository root; it is
// ignored by git.
const buildDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are derived from")
		seconds  = fs.Float64("seconds", 15, "minimum measured time; whole passes repeat until it is reached")
		trace    = fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: timed run printing end-to-end metrics")
		traceOut = fs.String("trace-out", filepath.Join(buildDir, "trace"), "traced runs write cpu.pprof and spans.jsonl under DIR/<workload>")
		repeat   = fs.Int("repeat", 0, "run each workload N times in fresh processes, alternating workloads, seeds seed..seed+N-1, and print medians and quartiles")
		doPin    = fs.Bool("pin", false, "re-record "+pinsFile+" at seeds 1-10 for the workload, or all")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 0 || *repeat < 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be non-negative")
		return 2
	}
	p, err := loadPins(pinsJSON)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, workers: workers(), pins: p}

	switch {
	case *doPin:
		return pinAll(selected, o, stdout, stderr)
	case *repeat > 0:
		return repeatRuns(selected, *repeat, *seed, childArgs(o, *trace, *traceOut), stdout, stderr)
	case len(selected) > 1:
		return runChildren(selected, *seed, childArgs(o, *trace, *traceOut), stdout, stderr)
	}

	w := selected[0]
	scratch, err := makeScratch()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	o.params = w.params
	o.env = env{root: ".", scratch: scratch}
	o.traceDir = filepath.Join(*traceOut, w.name)
	measure, defs := timedRun, endToEnd
	if *trace == 1 {
		measure, defs = tracedRun, perLayer
	}
	fmt.Fprintln(stdout, hostLine(o.workers))
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(stdout, w.name, rep, defs); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func selectWorkloads(name string) ([]*workload, error) {
	if name == "all" {
		return workloads, nil
	}
	if w, ok := findWorkload(name); ok {
		return []*workload{w}, nil
	}
	return nil, fmt.Errorf("unknown -workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
}

// workers is GOMAXPROCS, capped at the CPU count.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return n
}

func makeScratch() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "scratch-")
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints one line per metric and failure, then the JSON
// result holding exactly the metrics in defs.
func printReport(w io.Writer, workload string, rep *report, defs []metricDef) error {
	for _, p := range rep.passes {
		fmt.Fprintf(w, "pass workload=%s %s\n", workload, p)
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "metric workload=%s name=%s value=%s unit=%s n=%d\n",
			workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "fail workload=%s %s\n", workload, f)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		m, ok := rep.get(d.name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// childArgs are the flags every child process gets; child adds the
// workload and seed.
func childArgs(o runOpts, trace int, traceOut string) []string {
	return []string{
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-trace-out", traceOut,
	}
}

// child runs one workload in a fresh process of this binary, so peak
// RSS is per workload and no two workloads overlap.
func child(w *workload, seed uint64, args []string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}, args...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

func runChildren(ws []*workload, seed uint64, args []string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range ws {
		if err := child(w, seed, args, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// repeatRuns runs every workload n times, alternating workloads so host
// drift spreads evenly, and prints the median, quartiles and spread
// (interquartile range over median) of every metric line the runs print.
func repeatRuns(ws []*workload, n int, base uint64, args []string, stdout, stderr io.Writer) int {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	var names []string
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range ws {
			var out bytes.Buffer
			err := child(w, base+uint64(i), args, &out, stderr)
			if err != nil { // a run with a failed operation exits 1
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, base+uint64(i), err)
				code = 1
				continue
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			var summary []string
			for _, m := range metricLines(out.Bytes()) {
				if _, seen := units[m.name]; !seen {
					names = append(names, m.name)
				}
				units[m.name] = m.unit
				values[w.name][m.name] = append(values[w.name][m.name], m.value)
				summary = append(summary, fmt.Sprintf("%s=%.4g", m.name, m.value))
			}
			fmt.Fprintf(stderr, "bench: run %d/%d %s seed %d: %s\n", i+1, n, w.name, base+uint64(i), strings.Join(summary, " "))
		}
	}
	for _, w := range ws {
		for _, k := range names {
			vs := values[w.name][k]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(stdout, "repeat workload=%s name=%s median=%.6g q1=%.6g q3=%.6g spread=%.4f n=%d unit=%s\n",
				w.name, k, q2, q1, q3, spread, len(vs), units[k])
		}
	}
	return code
}

// metricLines parses the "metric" lines of a run's output.
func metricLines(out []byte) []metric {
	var ms []metric
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "metric" {
			continue
		}
		kv := map[string]string{}
		for _, p := range f[1:] {
			if k, v, ok := strings.Cut(p, "="); ok {
				kv[k] = v
			}
		}
		v, err := strconv.ParseFloat(kv["value"], 64)
		if err != nil {
			continue
		}
		ms = append(ms, metric{name: kv["name"], unit: kv["unit"], value: v})
	}
	return ms
}

func pinAll(ws []*workload, o runOpts, stdout, stderr io.Writer) int {
	scratch, err := makeScratch()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	o.env = env{root: ".", scratch: scratch}
	for _, w := range ws {
		if err := pin(o.pins, w, o); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "pinned %s at seeds %v and its canary\n", w.name, pinSeeds)
	}
	if err := writePins(o.pins, pinsFile); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}
