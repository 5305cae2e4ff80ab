// Command sdatrace runs a short simulation with scheduling-event tracing
// and renders an ASCII Gantt chart of node activity plus (optionally) the
// raw event log, either human-readable (-log) or as JSONL records sharing
// the obs span schema (-jsonl). It makes the effect of a deadline-
// assignment strategy visible at the level of individual subtasks cutting
// in line.
//
// With -chrome or -tree the run is telemetry-instrumented instead and the
// causal trace — spans plus the predecessor/abort/retry/inject edge
// stream, assembled into per-global-task trees — is exported as a
// Perfetto-loadable Chrome trace-event file and/or deterministic JSONL
// (see internal/obs/tracetree and docs/OBSERVABILITY.md). The four output
// modes are mutually exclusive pairs: -log/-jsonl render the scheduling
// event log, -chrome/-tree render the causal trace.
//
// Example:
//
//	sdatrace -load 0.7 -psp GF -until 30 -width 100
//	sdatrace -psp DIV-1 -log | head -50
//	sdatrace -psp DIV-1 -jsonl | head -50
//	sdatrace -psp DIV-1 -until 2000 -chrome trace.json -tree trees.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/tracetree"
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
	cfg                  sim.Config
	n, width             int
	showLog, jsonl       bool
	chromePath, treePath string
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
	fs.StringVar(&p.chromePath, "chrome", "", "assemble the causal trace and write it as a Chrome trace-event JSON file (load in Perfetto)")
	fs.StringVar(&p.treePath, "tree", "", "assemble the causal trace and write the trace trees as JSONL")
	fs.IntVar(&wl.Cfg.Obs.MaxSpans, "obs-max-spans", 0, "span retention budget for -chrome/-tree (0 = default); eviction degrades the trace deterministically")
	if err := cli.Parse(fs, args, cli.Rule{Max: map[string]float64{"width": maxWidth}}); err != nil {
		return nil, err
	}
	if (p.chromePath != "" || p.treePath != "") && (p.showLog || p.jsonl) {
		return nil, errors.New("-chrome/-tree conflict with -log/-jsonl: the causal trace replaces the event log")
	}
	var err error
	if p.cfg, err = wl.Config(); err != nil {
		return nil, err
	}
	p.n = wl.N
	p.cfg.Obs.Enabled = p.chromePath != "" || p.treePath != ""
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Execute runs the plan: the causal trace with -chrome or -tree, else
// one traced replication rendered as the event log or the Gantt chart.
func (p *plan) Execute(w io.Writer) error {
	if p.cfg.Obs.Enabled {
		return p.runTrace(w)
	}
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

// runTrace runs one telemetry-instrumented replication and exports the
// assembled causal trace.
func (p *plan) runTrace(w io.Writer) error {
	sys, err := sim.NewSystem(p.cfg, p.cfg.Seed)
	if err != nil {
		return err
	}
	if err := sys.Start(); err != nil {
		return err
	}
	sys.Finish(sys.Horizon())
	tel := sys.Telemetry()

	spans := tel.Spans()
	recs := make([]obs.Record, 0, len(spans))
	recs = append(recs, spans...)
	recs = append(recs, tel.Edges()...)
	forest := tracetree.Build(recs)
	if len(forest.Trees) == 0 {
		return fmt.Errorf("empty run: no global-task spans to assemble (until=%v, load=%g)", p.cfg.Duration, p.cfg.Spec.Load)
	}
	if err := forest.WriteFiles(p.treePath, p.chromePath); err != nil {
		return err
	}
	links := 0
	for _, t := range forest.Trees {
		links += len(t.Links)
	}
	fmt.Fprintf(w, "causal trace: %d trees, %d spans, %d links (%d orphan spans, %d dropped edges, %d evicted spans)\n",
		len(forest.Trees), len(spans), links, forest.Orphans, forest.Dropped, tel.DroppedSpans())
	if p.treePath != "" {
		fmt.Fprintf(w, "trees:  %s\n", p.treePath)
	}
	if p.chromePath != "" {
		fmt.Fprintf(w, "chrome: %s (open in https://ui.perfetto.dev)\n", p.chromePath)
	}
	return nil
}
