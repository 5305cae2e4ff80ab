// Command sdatrace runs a short simulation with scheduling-event tracing
// and renders an ASCII Gantt chart of node activity plus (optionally) the
// raw event log, either human-readable (-log) or as JSONL records sharing
// the obs span schema (-jsonl). It makes the effect of a deadline-
// assignment strategy visible at the level of individual subtasks cutting
// in line. The causal trace trees of a run are part of the sdaobs
// telemetry bundle (tracetree.jsonl, trace.chrome.json).
//
// Example:
//
//	sdatrace -load 0.7 -psp GF -until 30 -width 100
//	sdatrace -psp DIV-1 -log | head -50
//	sdatrace -psp DIV-1 -jsonl | head -50
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func main() { cli.Main("sdatrace", parse) }

func run(args []string, w io.Writer) error { return cli.Run("sdatrace", parse, args, w) }

// maxWidth caps -width: the chart holds a row of that many columns per
// node in memory.
const maxWidth = 10000

// plan is a validated sdatrace invocation.
type plan struct {
	cfg            sim.Config
	n, width       int
	showLog, jsonl bool
}

// parse registers the flags on fs and reads and validates args; it runs
// nothing and writes no file.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	def := sim.Default()
	def.Spec.K, def.Spec.Load, def.Spec.Factory = 3, 0.7, workload.FixedParallel{N: 3}
	def.PSP, def.Seed = sda.MustDiv(1), 7
	def.Duration, def.Warmup, def.Replications = 30, 0, 1
	wl := cli.AddWorkload(fs, def)
	p := &plan{}
	fs.Float64Var((*float64)(&wl.Cfg.Duration), "until", 30, "traced simulated time")
	fs.IntVar(&p.width, "width", 100, fmt.Sprintf("gantt width in columns (at most %d)", maxWidth))
	fs.BoolVar(&p.showLog, "log", false, "print the raw event log instead of the chart")
	fs.BoolVar(&p.jsonl, "jsonl", false, "print the event log as JSON lines (shared telemetry record schema)")
	if err := cli.Parse(fs, args, cli.Rule{Max: map[string]float64{"width": maxWidth}}); err != nil {
		return nil, err
	}
	var err error
	if p.cfg, err = wl.Config(); err != nil {
		return nil, err
	}
	p.n = wl.N
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Execute runs the plan: one traced replication rendered as the event
// log or the Gantt chart.
func (p *plan) Execute(w io.Writer) error {
	cfg := p.cfg
	var events node.Log
	cfg.Observer = &events
	if _, err := sim.RunOne(cfg, cfg.Seed); err != nil {
		return err
	}
	if p.jsonl {
		return writeJSONL(w, events)
	}
	if p.showLog {
		return writeLog(w, events)
	}
	fmt.Fprintf(w, "strategy %s-%s, load %g, k=%d, n=%d (seed %d)\n\n",
		cfg.SSP.Name(), cfg.PSP.Name(), cfg.Spec.Load, cfg.Spec.K, p.n, cfg.Seed)
	fmt.Fprint(w, gantt(events, 0, simtime.Time(cfg.Duration), p.width))
	return nil
}
