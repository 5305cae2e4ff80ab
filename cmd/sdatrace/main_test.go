package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
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
		if err := cli.Bounded(p.cfg, false); err != nil || p.width < 1 || p.width > maxWidth {
			t.Fatalf("accepted an unbounded plan (width %d): %v", p.width, err)
		}
	})
}
