// Command sdaexp regenerates the paper's tables and figures.
//
// Examples:
//
//	sdaexp -list
//	sdaexp -exp fig7                 # one figure at full fidelity
//	sdaexp -exp all -quick           # smoke-run everything
//	sdaexp -exp fig5 -format csv > fig5.csv
//	sdaexp -exp table1
//	sdaexp -obs obs-out -quick       # export telemetry of the baseline cell
//	sdaexp -exp fig7 -cpuprofile cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/sim"
)

func main() { cli.Main("sdaexp", parse) }

func run(args []string, out io.Writer) error { return cli.Run("sdaexp", parse, args, out) }

// plan is a validated sdaexp invocation.
type plan struct {
	id, format string
	list       bool
	opts       exp.Options
	tel        *cli.Telemetry
	observed   sim.Config // the instrumented baseline cell of -obs/-serve

	cpuprofile, memprofile, exectrace string
}

// parse registers the flags on fs, reads and validates args, the
// experiment id and the output format; it starts nothing and writes no
// file.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	p := &plan{tel: cli.AddTelemetry(fs, "run the baseline cell with telemetry and export the cross-replication merge (spans/exemplars/metrics/dashboard/summary) into this directory")}
	fid := cli.AddFidelity(fs)
	fs.StringVar(&p.id, "exp", "", "experiment id, 'all', 'table1' or 'table2' (see -list)")
	fs.BoolVar(&p.list, "list", false, "list available experiments")
	fs.StringVar(&p.format, "format", "text", "output format: text | csv | json | svg")
	workers := fs.Int("workers", 0, "bound cell+replication parallelism (0 = GOMAXPROCS cells, sequential replications)")
	fs.StringVar(&p.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&p.exectrace, "exectrace", "", "write a runtime execution trace to this file")
	if err := cli.Parse(fs, args, cli.Rule{}); err != nil {
		return nil, err
	}
	if p.list {
		return p, nil
	}
	if p.id == "" && !p.tel.On() {
		return nil, fmt.Errorf("no experiment selected; use -exp <id>, -obs <dir>, -serve <addr> or -list")
	}
	if _, ok := exp.Find(p.id); !ok && !slices.Contains([]string{"", "all", "table1", "table2"}, p.id) {
		return nil, fmt.Errorf("flag -exp: unknown experiment %q; known: %s", p.id, strings.Join(exp.IDs(), ", "))
	}
	if !slices.Contains([]string{"text", "csv", "json", "svg"}, p.format) {
		return nil, fmt.Errorf("flag -format: unknown format %q", p.format)
	}
	p.opts = fid.Options()
	p.opts.Workers = *workers
	p.observed = exp.BaselineConfig(p.opts)
	p.observed.Obs = p.tel.Options()
	p.observed.Obs.Enabled = true
	if err := p.observed.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Execute runs the plan.
func (p *plan) Execute(out io.Writer) error {
	if p.cpuprofile != "" {
		f, err := os.Create(p.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if p.exectrace != "" {
		f, err := os.Create(p.exectrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if p.memprofile != "" {
		f, err := os.Create(p.memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}
	if p.list {
		for _, e := range exp.All() {
			fmt.Fprintf(out, "%-12s %s\n", e.ID, e.Title)
		}
		fmt.Fprintf(out, "%-12s %s\n", "table1", "Baseline setting (Table 1)")
		fmt.Fprintf(out, "%-12s %s\n", "table2", "SSP/PSP combinations (Table 2)")
		return nil
	}
	if p.tel.On() {
		if err := p.exportObserved(out); err != nil {
			return err
		}
	}
	switch p.id {
	case "":
	case "table1":
		fmt.Fprint(out, exp.Table1())
	case "table2":
		fmt.Fprint(out, exp.Table2())
	case "all":
		for _, e := range exp.All() {
			if err := runOne(e, p.opts, p.format, out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	default:
		e, _ := exp.Find(p.id)
		return runOne(e, p.opts, p.format, out)
	}
	return nil
}

// exportObserved runs the Table 1 baseline cell with telemetry at the
// selected fidelity — every replication observed, on all opts.Workers —
// optionally serving the shards live, and writes the merged telemetry
// export into the -obs directory (skipped for -serve-only invocations).
func (p *plan) exportObserved(out io.Writer) error {
	if err := p.tel.Start(out); err != nil {
		return err
	}
	defer p.tel.Close()
	cfg := p.observed
	info := p.tel.Hook(&cfg)
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	return p.tel.Export(out, res.Obs, nil, info)
}

func runOne(e exp.Experiment, opts exp.Options, format string, out io.Writer) error {
	tbl, err := e.Run(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	switch format {
	case "text":
		fmt.Fprint(out, tbl.Text())
	case "csv":
		fmt.Fprint(out, tbl.CSV())
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tbl); err != nil {
			return fmt.Errorf("encode %s: %w", e.ID, err)
		}
	case "svg":
		svg, err := tbl.SVG()
		if err != nil {
			return fmt.Errorf("render %s: %w", e.ID, err)
		}
		fmt.Fprint(out, svg)
	}
	return nil
}
