// Command sdaobs runs one telemetry-instrumented simulation and exports
// the unified telemetry bundle: task-lifecycle spans as JSONL, the
// instrument catalog in Prometheus text exposition format, an SVG
// dashboard of the slack, lateness and latency quantile bands, a
// human-readable summary, the miss-cause attribution report
// (blame.md / blame.json) and, for a run of one system, its sampled time
// series as CSV. Telemetry is clocked on simulated time and never
// perturbs the run, so the export is bit-identical on every invocation
// with the same inputs.
//
// Modes:
//
//	sdaobs -scenario testdata/scenarios/baseline_div.json -out obs-out
//	sdaobs -load 0.6 -psp DIV-1 -duration 20000 -out obs-out
//	sdaobs -load 0.6 -reps 8 -workers 4 -out obs-out   # cross-replication merge
//	sdaobs -from obs-out -out rederived                # re-derive, run nothing
//
// With -reps above 1 every replication runs observed (concurrently under
// -workers) and the export is the deterministic cross-replication merge:
// spans, exemplars, metrics, quantile dashboard, summary — bit-identical
// at any worker count.
//
// With -from, sdaobs runs nothing: it reads the spans.jsonl, edges.jsonl
// and exemplars.jsonl of an existing bundle and writes the four files a
// bundle derives from them (blame.md, blame.json, tracetree.jsonl,
// trace.chrome.json) into -out, byte-identical to the bundle's own. Span
// logs of the original unversioned schema are accepted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/tracetree"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() { cli.Main("sdaobs", parse) }

func run(args []string, w io.Writer) error { return cli.Run("sdaobs", parse, args, w) }

// plan is a validated sdaobs invocation.
type plan struct {
	outDir string
	from   string             // bundle to re-derive; "" runs a simulation
	sc     *scenario.Scenario // nil in synthetic mode
	cfg    sim.Config         // the scenario's or the synthetic config
}

// parse registers the flags on fs, reads and validates args and loads
// the scenario file; it runs nothing and writes no file.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	def := sim.Default()
	def.Replications, def.Obs = 1, obs.Options{Enabled: true, SampleEvery: 50, MaxSamples: 4096, MaxSpans: 1 << 16}
	wl := cli.AddWorkload(fs, def)
	c := &wl.Cfg
	p := &plan{}
	scenarioFile := fs.String("scenario", "", "run this scenario file instead of a synthetic workload")
	fs.StringVar(&p.outDir, "out", "obs-out", "directory for the telemetry export")
	fs.StringVar(&p.from, "from", "", "re-derive blame.md, blame.json, tracetree.jsonl and trace.chrome.json from the bundle in this directory into -out, running nothing")
	fs.Float64Var((*float64)(&c.Obs.SampleEvery), "sample-every", 50, "sampler cadence in simulated time units")
	fs.IntVar(&c.Obs.MaxSamples, "max-samples", 4096, "time-series ring capacity (oldest samples overwritten)")
	fs.IntVar(&c.Obs.MaxSpans, "obs-max-spans", 1<<16, "per-replication span retention budget; evicted spans are counted, aggregates stay exact")
	fs.Float64Var((*float64)(&c.Duration), "duration", float64(c.Duration), "measured simulated time (synthetic mode)")
	fs.Float64Var((*float64)(&c.Warmup), "warmup", float64(c.Warmup), "warmup time (synthetic mode)")
	fs.IntVar(&c.Replications, "reps", 1, "replications (synthetic mode); above 1 the export is the cross-replication merge")
	fs.IntVar(&c.Workers, "workers", 1, "replications run concurrently (synthetic mode); the merged export is identical at any worker count")
	rule := cli.Rule{ZeroOK: []string{"warmup"}, Max: map[string]float64{"max-samples": sim.MaxSamples}}
	if err := cli.Parse(fs, args, rule); err != nil {
		return nil, err
	}
	if p.from != "" {
		var err error
		fs.Visit(func(f *flag.Flag) {
			if err == nil && f.Name != "from" && f.Name != "out" {
				err = fmt.Errorf("flag -%s conflicts with -from: a re-derivation runs nothing", f.Name)
			}
		})
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	var err error
	if p.cfg, err = wl.Config(); err == nil && *scenarioFile != "" {
		if p.sc, err = scenario.Load(*scenarioFile); err == nil {
			p.cfg, err = p.sc.Config()
			p.cfg.Obs = c.Obs
		}
	}
	if err != nil {
		return nil, err
	}
	// The flag rule has already checked -max-samples and a non-finite
	// -sample-every; what is left of a sampler error is the tick count.
	if err := p.cfg.Validate(); errors.Is(err, sim.ErrSampler) {
		return nil, fmt.Errorf("flag -sample-every: %w", err)
	} else if err != nil {
		return nil, err
	}
	return p, nil
}

// Execute runs the plan and writes the telemetry bundle, or with -from
// re-derives an existing one.
func (p *plan) Execute(w io.Writer) error {
	if p.from != "" {
		return p.rederive(w)
	}
	// Every mode exports a fold: the cross-replication merge of a
	// multi-replication run, or a fold of the one system's shard, which
	// also writes the system's sampled time series. The fold's snapshot
	// holds the retained spans and edges plus the exemplars: under a
	// tight -obs-max-spans budget the worst and latest spans per kind are
	// still present.
	var (
		tel  *obs.Telemetry // single-system modes: scenario, -reps 1
		fold *obs.Merged
		cfg  = p.cfg
	)
	switch {
	case p.sc != nil:
		out, scTel, err := scenario.RunObserved(p.sc, cfg.Obs, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scenario %s: %d trace events, hash %s\n", p.sc.Name, out.TraceEvents, out.TraceHash)
		for _, f := range out.Failures {
			fmt.Fprintf(w, "scenario failure: %s\n", f)
		}
		tel = scTel
	case cfg.Replications > 1:
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "synthetic %s load=%g x%d reps: md_local %s  md_global %s  util %s\n",
			cfg.Name(), cfg.Spec.Load, cfg.Replications, res.MDLocal, res.MDGlobal, res.Utilization)
		fold = res.Obs
	default:
		sys, err := sim.NewSystem(cfg, cfg.Seed)
		if err != nil {
			return err
		}
		if err := sys.Start(); err != nil {
			return err
		}
		rep := sys.Finish(sys.Horizon())
		fmt.Fprintf(w, "synthetic %s load=%g: md_local %.4f  md_global %.4f  util %.4f\n",
			cfg.Name(), cfg.Spec.Load, rep.MDLocal, rep.MDGlobal, rep.Utilization)
		tel = sys.Telemetry()
	}

	var sampler *obs.Sampler
	if tel != nil {
		fold = obs.NewMerged()
		if err := tel.MergeInto(fold); err != nil {
			return err
		}
		sampler = tel.Sampler()
	}
	paths, err := obs.ExportBundle(p.outDir, fold, sampler)
	if err != nil {
		return err
	}
	snap := fold.Snapshot()
	derived, err := derive(p.outDir, snap.Spans, snap.Edges, snap.Exemplars.Records())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%sexported: %s\n", fold.Summary(), strings.Join(append(paths, derived...), " "))
	return nil
}

// rederive reads the span, edge and exemplar logs of the bundle in
// p.from and derives its four files into p.outDir.
func (p *plan) rederive(w io.Writer) error {
	spans, err := readLog(filepath.Join(p.from, obs.SpansFile), true)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: no records", filepath.Join(p.from, obs.SpansFile))
	}
	edges, err := readLog(filepath.Join(p.from, obs.EdgesFile), false)
	if err != nil {
		return err
	}
	exemplars, err := readLog(filepath.Join(p.from, obs.ExemplarsFile), false)
	if err != nil {
		return err
	}
	paths, err := derive(p.outDir, spans, edges, exemplars)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "re-derived from %d spans, %d edges, %d exemplars: %s\n",
		len(spans), len(edges), len(exemplars), strings.Join(paths, " "))
	return nil
}

// readLog decodes the JSONL record log at path. A missing log reads as
// no records unless it is required.
func readLog(path string, required bool) ([]obs.Record, error) {
	f, err := os.Open(path)
	if !required && errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// derive writes the four files a bundle derives from its logs into dir:
// the miss-cause report over spans ∪ exemplars as markdown and JSON, and
// the causal trace trees over spans and edges as JSONL plus the
// Perfetto-loadable Chrome trace. A run and -from both write them here,
// so a re-derivation matches the bundle byte for byte. (obs cannot
// depend on attrib or tracetree, so the command writes these files.) It
// returns the paths written.
func derive(dir string, spans, edges, exemplars []obs.Record) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rpt := attrib.Analyze(obs.AnalysisInput(spans, exemplars))
	jsonBody, err := rpt.JSON()
	if err != nil {
		return nil, err
	}
	paths := []string{filepath.Join(dir, "blame.md"), filepath.Join(dir, "blame.json"),
		filepath.Join(dir, "tracetree.jsonl"), filepath.Join(dir, "trace.chrome.json")}
	if err := os.WriteFile(paths[0], []byte(rpt.Markdown()), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(paths[1], jsonBody, 0o644); err != nil {
		return nil, err
	}
	forest := tracetree.Build(append(append([]obs.Record(nil), spans...), edges...))
	if err := forest.WriteFiles(paths[2], paths[3]); err != nil {
		return nil, err
	}
	return paths, nil
}
