package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smallOpts runs a workload at its canary size: the same code paths at a
// few percent of the benchmark's work.
func smallOpts(t *testing.T, w *workload) runOpts {
	t.Helper()
	p, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{
		seed: 7, params: w.canary, workers: 2, pins: p,
		env:      env{root: "..", scratch: t.TempDir()},
		traceDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsPrintEveryMetric runs every workload at test size, timed
// and traced, and checks that each run passes its checks and prints every
// declared metric on a line and in the JSON result.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			name    string
			measure func(*workload, runOpts) (*report, error)
			defs    []metricDef
		}{{"timed", timedRun, endToEnd}, {"traced", tracedRun, perLayer}} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				rep, err := mode.measure(w, smallOpts(t, w))
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
				}
				var out bytes.Buffer
				if err := printReport(&out, w.name, rep, mode.defs); err != nil {
					t.Fatal(err)
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					if !metricName.MatchString(d.name) {
						t.Errorf("metric name %q is not a valid name", d.name)
					}
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
						t.Errorf("JSON metric %s = %+v, want a number in %s", d.name, m, d.unit)
					}
					if !strings.Contains(out.String(), " name="+d.name+" ") {
						t.Errorf("no line for metric %s", d.name)
					}
				}
			})
		}
	}
}

// TestWorkersAgree checks that a pass's outputs do not depend on the
// worker count.
func TestWorkersAgree(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := smallOpts(t, w)
			run, err := w.setup(o.seed, o.params, o.env)
			if err != nil {
				t.Fatal(err)
			}
			one, two := run(&passCtx{workers: 1}), run(&passCtx{workers: 2})
			for i := range one.ops {
				if one.ops[i].err != "" || two.ops[i].err != "" {
					t.Fatalf("op %d failed: %q / %q", i, one.ops[i].err, two.ops[i].err)
				}
				if one.ops[i].fp != two.ops[i].fp {
					t.Errorf("op %d: fingerprint %016x at 1 worker, %016x at 2", i, one.ops[i].fp, two.ops[i].fp)
				}
			}
		})
	}
}

// TestCheckCountsMismatches feeds check a pass whose outputs differ from
// the reference, as a behaviour change would.
func TestCheckCountsMismatches(t *testing.T) {
	ref := &passResult{ops: []op{{fp: 1}, {fp: 2}, {fp: 3}}}
	bad := &passResult{ops: []op{{fp: 1}, {fp: 9}, {err: "boom"}}}
	rep := &report{}
	check(rep, "pass", nil, []*passResult{ref, bad})
	if rep.attempted != 6 || rep.failed != 2 || len(rep.failures) != 2 {
		t.Fatalf("attempted %d failed %d failures %v; want 6, 2, 2 messages", rep.attempted, rep.failed, rep.failures)
	}

	// Pinned fingerprints take precedence over the run's own first pass.
	w := workloads[0]
	p := pins{w.name: {"5": {"0000000000000001", "0000000000000002", "0000000000000004"}}}
	rep = &report{}
	check(rep, "pass", p.forRun(w, 5, w.params), []*passResult{ref})
	if rep.failed != 1 {
		t.Fatalf("failed %d against pins, want 1: %v", rep.failed, rep.failures)
	}
	if p.forRun(w, 5, w.canary) != nil || p.forRun(w, 6, w.params) != nil {
		t.Error("pins applied to a size or seed that was not pinned")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 199 samples reported; fewer than 10 lie beyond it")
	}
	xs = append(xs, 200)
	v, ok := percentile(xs, 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, want)
	}
	for _, c := range []struct {
		list string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.list, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.list, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestPinsFileWellFormed(t *testing.T) {
	p, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, w := range workloads {
		if _, ok := p.lookup(w, canaryKey); !ok {
			t.Errorf("%s: no pinned canary", w.name)
		}
	}
	for name, seeds := range p {
		if _, ok := findWorkload(name); !ok {
			t.Errorf("pins for unknown workload %q", name)
		}
		for seed, fps := range seeds {
			for _, fp := range fps {
				if !hex.MatchString(fp) {
					t.Errorf("%s seed %s: bad fingerprint %q", name, seed, fp)
				}
			}
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig7-sweep", "-trace", "2"},
		{"-workload", "fig7-sweep", "-seconds", "-1"},
		{"-workload", "fig7-sweep", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want exit 2 and no output", args, code, out.String())
		}
	}
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no JSON result on the last line: %w", err)
	}
	return res, nil
}
