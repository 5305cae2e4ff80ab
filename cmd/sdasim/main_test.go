package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestSimRunsQuick(t *testing.T) {
	err := run([]string{"-duration", "800", "-warmup", "50", "-reps", "1", "-psp", "DIV-1"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimCondFactory(t *testing.T) {
	err := run([]string{"-factory", "cond", "-n", "2", "-stages", "3",
		"-branches", "2", "-branch-probs", "0.3,0.7",
		"-duration", "800", "-warmup", "50", "-reps", "1"})
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
		if err := run(args); err == nil {
			t.Errorf("case %d: expected error for %v", i, args)
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
			"-workers", workers, "-obs", dir, "-obs-max-spans", "256"})
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
	if err := run([]string{"-duration", "500", "-warmup", "0", "-record-trace", trace}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	if err := run([]string{"-duration", "500", "-warmup", "0", "-psp", "GF", "-replay-trace", trace}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay-trace", filepath.Join(dir, "missing.txt")}); err == nil {
		t.Error("missing trace file should error")
	}
}
