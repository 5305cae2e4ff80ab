package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

func TestTraceGantt(t *testing.T) {
	if err := run([]string{"-until", "10", "-width", "40"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTraceLog(t *testing.T) {
	if err := run([]string{"-until", "5", "-log"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestReadmeExamplesPinned pins the full output of each README example
// by its SHA-256 digest. The runs label unnamed, pooled items, so the
// digests cover the t<n> numbering of recycled items as well as the
// Gantt layout, the event-log format and the JSONL records.
func TestReadmeExamplesPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		sum  string
	}{
		{nil, "9d9fcf0496b2aca8dc745c1dbb8ac4a25bf59a8f8e6c3d0915d633f13ae6fd03"},
		{[]string{"-load", "0.7", "-psp", "GF", "-until", "30"}, "1866b0a29d48a8f19e9eb0b33f2493ae779de4f43c9c923c8afd6b9563657691"},
		{[]string{"-psp", "DIV-1", "-log"}, "6e9441afacfd35a3fd7070422b9739cf48359fdb347b4a1eeb9a366ea2524528"},
		{[]string{"-psp", "DIV-1", "-jsonl"}, "54b9acaecf97e8829fbe0c6dfd6fdf278ed53f83d5dc4ccf8b566b375af9350f"},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%v: output digest %s, want %s", c.args, got, c.sum)
		}
	}
}

func TestTraceFlagErrors(t *testing.T) {
	if err := run([]string{"-psp", "bogus"}, io.Discard); err == nil {
		t.Error("bad psp accepted")
	}
	if err := run([]string{"-ssp", "bogus"}, io.Discard); err == nil {
		t.Error("bad ssp accepted")
	}
}

// TestTraceFlagConflict pins the mode split: the causal-trace exports
// replace the event log, so mixing the flag pairs is an error.
func TestTraceFlagConflict(t *testing.T) {
	for _, args := range [][]string{
		{"-chrome", "x.json", "-log"},
		{"-chrome", "x.json", "-jsonl"},
		{"-tree", "x.jsonl", "-log"},
		{"-tree", "x.jsonl", "-jsonl", "-chrome", "x.json"},
	} {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "conflict") {
			t.Errorf("run(%v) = %v, want conflict error", args, err)
		}
	}
}

// TestTraceBadPath: an unwritable export path surfaces as an error, not
// a partial success.
func TestTraceBadPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")
	if err := run([]string{"-until", "50", "-chrome", path}, io.Discard); err == nil {
		t.Fatal("run with unwritable -chrome path succeeded")
	}
}

// TestTraceEmptyRun: a horizon too short for any global task to be
// released yields a diagnostic instead of empty export files.
func TestTraceEmptyRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.jsonl")
	err := run([]string{"-until", "0.0001", "-tree", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "empty run") {
		t.Fatalf("run on an empty horizon = %v, want empty-run error", err)
	}
}

// TestTraceExports runs a short traced simulation and checks both export
// files exist, parse, and agree with the printed summary.
func TestTraceExports(t *testing.T) {
	dir := t.TempDir()
	treePath := filepath.Join(dir, "trees.jsonl")
	chromePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-until", "200", "-tree", treePath, "-chrome", chromePath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "causal trace:") {
		t.Errorf("missing summary line in output:\n%s", out.String())
	}

	tf, err := os.Open(treePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	trees := 0
	sc := bufio.NewScanner(tf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var tree struct {
			Root  uint64 `json:"root"`
			Spans int    `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &tree); err != nil {
			t.Fatalf("tree line %d: %v", trees+1, err)
		}
		if tree.Root == 0 || tree.Spans < 1 {
			t.Errorf("tree line %d: root=%d spans=%d", trees+1, tree.Root, tree.Spans)
		}
		trees++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if trees == 0 {
		t.Error("tree export is empty")
	}

	cb, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(cb, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Errorf("chrome export: displayTimeUnit=%q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

// TestTraceFlagProbes pins the flag rule on -width, whose runaway value
// once ran out of memory; each case runs under a deadline.
func TestTraceFlagProbes(t *testing.T) {
	for _, args := range [][]string{
		{"-width", "100000000000"},
		{"-width", "0"},
		{"-width", "-5"},
	} {
		done := make(chan error, 1)
		go func() { done <- run(args, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "-width") {
				t.Errorf("%v: err = %v, want an error naming -width", args, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: still running after 30s", args)
		}
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names: it must never panic, and every plan it accepts must be bounded.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	f.Add([]byte{})
	f.Add([]byte{12, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdatrace", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil {
			return
		}
		if err := cli.Bounded(p.cfg); err != nil || p.width < 1 || p.width > maxWidth {
			t.Fatalf("accepted an unbounded plan (width %d): %v", p.width, err)
		}
	})
}
