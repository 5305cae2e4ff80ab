package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestSimRunsQuick(t *testing.T) {
	err := run([]string{"-duration", "800", "-warmup", "50", "-reps", "1", "-psp", "DIV-1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimCondFactory(t *testing.T) {
	err := run([]string{"-factory", "cond", "-n", "2", "-stages", "3",
		"-branches", "2", "-branch-probs", "0.3,0.7",
		"-duration", "800", "-warmup", "50", "-reps", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-factory", "bogus"},
		{"-factory", "cond", "-branch-probs", "0.3,0.3"},  // sum != 1
		{"-factory", "cond", "-branch-probs", "1.5,-0.5"}, // out of (0,1]
		{"-factory", "cond", "-branch-probs", "0.5,zap"},  // unparsable
		{"-ssp", "bogus"},
		{"-psp", "bogus"},
		{"-abort", "bogus"},
		{"-policy", "bogus"},
		{"-estimator", "bogus"},
		{"-estimator", "noisy:x"},
		{"-estimator", "noisy:-1"},
		{"-n", "9"}, // 9 parallel subtasks on 6 nodes
		// Non-finite and runaway values: each once hung, panicked, ran
		// out of memory or printed all-zero results.
		{"-duration", "nan"},
		{"-duration", "inf"},
		{"-warmup", "nan"},
		{"-load", "inf"},
		{"-load", "nan"},
		{"-frac-local", "nan"},
		{"-estimator", "noisy:nan"},
		{"-estimator", "noisy:inf"},
		{"-k", "3000000000"},
	}
	for i, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("case %d: expected error for %v", i, args)
		}
	}
}

// TestNamesMatchScenario: for every factory and abort name, the -factory
// and -abort flags and a scenario's workload.factory and abort fields,
// given the same shape parameters, build the same workload.Spec and
// abort mode. sdasim always sets an estimator and a scenario never does,
// so the flag side's is cleared first.
func TestNamesMatchScenario(t *testing.T) {
	for _, factory := range []string{"parallel", "uniform", "serial", "layered", "forkjoin", "cond"} {
		for _, abort := range []string{"none", "pm", "local"} {
			fs := flag.NewFlagSet("sdasim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			p, err := parse(fs, []string{"-factory", factory, "-abort", abort, "-n", "3", "-stages", "3",
				"-edge-prob", "0.2", "-cross-prob", "0.4", "-branches", "3", "-branch-probs", "0.2,0.3,0.5"})
			if err != nil {
				t.Fatalf("%s/%s: sdasim: %v", factory, abort, err)
			}
			sc := scenario.Scenario{
				Name:     "names",
				Duration: 100,
				Abort:    abort,
				Workload: scenario.Workload{K: 6, Load: 0.5, FracLocal: 0.75, Factory: factory,
					N: 3, Stages: 3, EdgeProb: 0.2, CrossProb: 0.4, Branches: 3,
					BranchProbs: []float64{0.2, 0.3, 0.5}},
			}
			cfg, err := sc.Config()
			if err != nil {
				t.Fatalf("%s/%s: scenario: %v", factory, abort, err)
			}
			flags := p.cfg.Spec
			flags.Estimator = nil
			if !reflect.DeepEqual(flags, cfg.Spec) {
				t.Errorf("%s/%s: specs differ:\nsdasim   %+v\nscenario %+v", factory, abort, flags, cfg.Spec)
			}
			if p.cfg.Abort != cfg.Abort {
				t.Errorf("%s/%s: abort %v, scenario %v", factory, abort, p.cfg.Abort, cfg.Abort)
			}
		}
	}
}

// TestSimTaskCap checks that flags expanding a replication past
// sim.MaxTasks expected tasks fail at validation. Each of these once ran
// until killed, so the check runs under a deadline instead of hanging
// the suite.
func TestSimTaskCap(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.txt")
	cases := [][]string{
		{"-load", "1e300"},
		{"-duration", "1e300"},
		{"-k", "1000000", "-duration", "1000000"},
		// Recording comes first and synthesizes the workload.
		{"-duration", "1e300", "-record-trace", trace, "-replay-trace", trace},
	}
	for _, args := range cases {
		done := make(chan error, 1)
		go func() { done <- run(args, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "expected tasks") {
				t.Errorf("%v: err = %v, want the expected-task cap", args, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: still running after 30s", args)
		}
	}
}

// TestSimMergedObsExport checks -obs on a parallel multi-replication
// run: the export is the cross-replication merge and its bytes do not
// depend on the worker count.
func TestSimMergedObsExport(t *testing.T) {
	export := func(workers string) map[string]string {
		dir := t.TempDir()
		err := run([]string{"-duration", "800", "-warmup", "50", "-reps", "2",
			"-workers", workers, "-obs", dir, "-obs-max-spans", "256"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, name := range []string{obs.SpansFile, obs.ExemplarsFile, obs.MetricsFile, obs.SummaryFile} {
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
	seq, par := export("1"), export("2")
	for name, want := range seq {
		if par[name] != want {
			t.Errorf("%s differs between -workers 1 and -workers 2", name)
		}
	}
}

func TestSimRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.txt")
	if err := run([]string{"-duration", "500", "-warmup", "0", "-record-trace", trace}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	if err := run([]string{"-duration", "500", "-warmup", "0", "-psp", "GF", "-replay-trace", trace}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// An observed replay exports its telemetry as a run does.
	obsDir := filepath.Join(dir, "obs")
	var out strings.Builder
	if err := run([]string{"-duration", "500", "-warmup", "0", "-replay-trace", trace, "-obs", obsDir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "telemetry exported: "+filepath.Join(obsDir, obs.SpansFile)) {
		t.Errorf("observed replay exported no bundle:\n%s", out.String())
	}
	// The replay built one system, so its sampled time series is
	// written beside the bundle.
	if csv, err := os.ReadFile(filepath.Join(obsDir, obs.TimeSeriesFile)); err != nil || !strings.HasPrefix(string(csv), "time,queue_node0,") {
		t.Errorf("observed replay wrote no time series: %v", err)
	}
	if err := run([]string{"-replay-trace", filepath.Join(dir, "missing.txt")}, io.Discard); err == nil {
		t.Error("missing trace file should error")
	}
}

// TestSimFlagProbes pins the flag rule: an explicitly set zero, negative
// or non-finite value is an error naming the flag, never a silent
// fallback to the default. A replayed arrival trace follows the same
// rule: a non-finite time or deadline is an error naming the line, and a
// task for a node the system lacks one naming the node, before anything
// runs.
func TestSimFlagProbes(t *testing.T) {
	dir := t.TempDir()
	trace := func(name, line string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-workers", []string{"-workers", "-3"}},
		{"-obs-max-spans", []string{"-obs-max-spans", "-5"}},
		{"-serve-every", []string{"-serve-every", "0"}},
		{"-serve-every", []string{"-serve-every", "-4"}},
		{"-reps", []string{"-reps", "0"}},
		{"-stages", []string{"-factory", "serial", "-stages", "100000000"}},
		{"line 1: time NaN", []string{"-replay-trace", trace("nan-time", "NaN 3005 _@0:1")}},
		{"at node 99", []string{"-replay-trace", trace("far-node", "3000 3005 _@99:1")}},
		{"line 1: deadline NaN", []string{"-replay-trace", trace("nan-deadline", "3000 NaN _@0:1")}},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

// TestSimReplayFarArrival: one arrival at 1e13 stretches a replay's
// horizon, so with telemetry on the sampler would tick 2e11 times. The
// replay must fail at once with the sampler cap; it once ran until
// killed. Without telemetry it runs.
func TestSimReplayFarArrival(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "far.trace")
	if err := os.WriteFile(trace, []byte("1e13 1.00000001e13 _@1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-replay-trace", trace, "-obs", t.TempDir()}, io.Discard) }()
	select {
	case err := <-done:
		if !errors.Is(err, sim.ErrSampler) {
			t.Errorf("err = %v, want the sampler cap", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("still running after 30s")
	}
	if err := run([]string{"-replay-trace", trace}, io.Discard); err != nil {
		t.Errorf("unobserved replay: %v", err)
	}
}

// TestSimReplayLongHorizon: a replay's trace is its workload, so a
// horizon whose synthetic rates would pass sim.MaxTasks expected tasks
// replays its one arrival instead of failing the task cap.
func TestSimReplayLongHorizon(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "one.trace")
	if err := os.WriteFile(trace, []byte("10 15 _@1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-replay-trace", trace, "-duration", "1e9"}, &out); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(out.String(), "replayed 1 arrivals") {
		t.Errorf("output does not report the one arrival:\n%s", out.String())
	}
}

// TestSimTelemetryOutput pins what an observed run prints: the merged
// summary whenever -obs or -serve is set, and the exported files only
// with -obs.
func TestSimTelemetryOutput(t *testing.T) {
	base := []string{"-duration", "300", "-warmup", "0", "-reps", "1"}
	dir := t.TempDir()
	for _, tc := range []struct {
		args              []string
		summary, exported bool
	}{
		{nil, false, false},
		{[]string{"-obs", dir}, true, true},
		{[]string{"-serve", "127.0.0.1:0"}, true, false},
	} {
		var out strings.Builder
		if err := run(append(append([]string(nil), base...), tc.args...), &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := strings.Contains(out.String(), "\nscheduling   enqueue"); got != tc.summary {
			t.Errorf("%v: summary printed %v, want %v:\n%s", tc.args, got, tc.summary, out.String())
		}
		if got := strings.Contains(out.String(), "telemetry exported: "); got != tc.exported {
			t.Errorf("%v: export listed %v, want %v:\n%s", tc.args, got, tc.exported, out.String())
		}
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names: it must never panic, and every plan it accepts must be bounded.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdasim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil {
			return
		}
		if err := cli.Bounded(p.cfg, p.replays()); err != nil {
			t.Fatalf("accepted an unbounded plan: %v", err)
		}
	})
}
