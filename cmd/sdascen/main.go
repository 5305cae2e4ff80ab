// Command sdascen runs the deterministic scenario & fault-injection
// suite: every scenario file under -dir is executed with the invariant
// checker attached, its assertions are evaluated, and its canonical trace
// hash is compared against the golden registry (golden.txt in the same
// directory).
//
// Usage:
//
//	sdascen                     # run all scenarios in testdata/scenarios
//	sdascen crash-restart       # run scenarios by name
//	sdascen -v                  # include per-scenario metrics
//	sdascen -bless              # re-bless golden hashes after a deliberate
//	                            # behaviour change (commit the diff!)
//	sdascen -stress-scale 2 -summary out.txt stress-zone-5k
//	                            # stress smoke run at half fleet size,
//	                            # deterministic summary written for cmp
//
// Stress scenarios (fleet template generator + seeded chaos engine, see
// docs/STRESS.md) have no golden hash; they are judged by the always-on
// invariants, the analytic oracle and the scenario's assertion bands, and
// their outcome summaries are byte-identical across runs and worker
// counts.
//
// Exit status is non-zero when any scenario fails an assertion, violates
// an invariant, or drifts from its golden hash.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() { cli.Main("sdascen", parse) }

func run(args []string, w io.Writer) error { return cli.Run("sdascen", parse, args, w) }

// plan is a validated sdascen invocation: the selected scenarios and
// their golden hashes, loaded but not run.
type plan struct {
	dir, flightDir, summaryPath string
	bless, list, verbose        bool
	stressScale, stressWorkers  int
	tel                         *cli.Telemetry
	scs                         []*scenario.Scenario
	golden                      map[string]string
}

// parse registers the flags on fs, reads and validates args and loads
// the selected scenarios; it runs nothing, writes no file and binds no
// port.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	p := &plan{tel: cli.AddTelemetry(fs, "run with telemetry and export spans/metrics/timeseries/dashboard per scenario into this directory")}
	fs.StringVar(&p.dir, "dir", "testdata/scenarios", "directory holding scenario *.json files")
	fs.BoolVar(&p.bless, "bless", false, "rewrite the golden hash registry from this run")
	fs.BoolVar(&p.list, "list", false, "list scenarios and exit")
	fs.BoolVar(&p.verbose, "v", false, "print per-scenario metrics")
	fs.StringVar(&p.flightDir, "flight", "", "attach the kernel flight recorder and write each scenario's calendar report (event mix, record pool, calendar depth; <name>.flight.md + .prom) into this directory")
	fs.IntVar(&p.stressScale, "stress-scale", 1, "divide stress-scenario fleet sizes by this factor (smoke runs; band assertions are skipped when > 1)")
	fs.IntVar(&p.stressWorkers, "stress-workers", 0, "replication workers for stress scenarios (0 = GOMAXPROCS); results are identical at every count")
	fs.StringVar(&p.summaryPath, "summary", "", "append each stress scenario's deterministic outcome summary to this file (\"-\" = stdout), for cmp-based determinism checks")
	if err := cli.Parse(fs, args, cli.Rule{}); err != nil {
		return nil, err
	}
	scs, err := scenario.LoadDir(p.dir)
	if err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("no scenario files in %s", p.dir)
	}
	if picked := fs.Args(); len(picked) > 0 {
		byName := make(map[string]*scenario.Scenario, len(scs))
		for _, sc := range scs {
			byName[sc.Name] = sc
		}
		var subset []*scenario.Scenario
		for _, name := range picked {
			sc, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (use -list)", name)
			}
			subset = append(subset, sc)
		}
		scs = subset
	}
	p.scs = scs
	if p.golden, err = scenario.ReadGolden(filepath.Join(p.dir, scenario.GoldenFile)); err != nil {
		return nil, err
	}
	return p, nil
}

// Execute runs the selected scenarios, or lists them.
func (p *plan) Execute(w io.Writer) error {
	scs := p.scs
	if p.list {
		for _, sc := range scs {
			kind := ""
			if sc.IsStress() {
				kind = fmt.Sprintf("[stress %d nodes] ", sc.Stress.Fleet.Nodes)
			}
			fmt.Fprintf(w, "%-24s %s%s\n", sc.Name, kind, sc.Description)
		}
		return nil
	}

	var summary io.Writer
	if p.summaryPath == "-" {
		summary = w
	} else if p.summaryPath != "" {
		f, err := os.Create(p.summaryPath)
		if err != nil {
			return err
		}
		defer f.Close()
		summary = f
	}
	if p.flightDir != "" {
		if err := os.MkdirAll(p.flightDir, 0o755); err != nil {
			return err
		}
	}
	// writeFlight exports one scenario's flight-recorder findings: the
	// markdown report and the Prometheus exposition.
	writeFlight := func(name string, fl *des.Flight) error {
		md := filepath.Join(p.flightDir, name+".flight.md")
		if err := os.WriteFile(md, []byte(fl.Report(name)), 0o644); err != nil {
			return err
		}
		var buf strings.Builder
		if err := fl.WritePrometheus(&buf); err != nil {
			return err
		}
		prom := filepath.Join(p.flightDir, name+".flight.prom")
		if err := os.WriteFile(prom, []byte(buf.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "     flight report: %s\n", md)
		return nil
	}

	// Live observability: one server spans the whole suite; each scenario
	// attaches the hub to its own telemetry sampler and its own fold, and
	// hands its telemetry to that fold when it ends (a new fold starts a
	// fresh run in the hub). Snapshots publish inside existing read-only
	// sampler ticks, so golden hashes are unaffected by -serve.
	if err := p.tel.Start(w); err != nil {
		return err
	}
	defer p.tel.Close()

	failed := 0
	for i, sc := range scs {
		if sc.IsStress() {
			// Stress scenarios: templated fleet + seeded chaos, no golden
			// hash (judged by invariants, the oracle and the Assert bands).
			sc.ApplyStressScale(p.stressScale)
			var (
				out *scenario.Outcome
				fl  *des.Flight
				err error
			)
			if p.flightDir != "" {
				out, fl, err = scenario.RunStressFlight(sc, p.stressWorkers)
			} else {
				out, err = scenario.RunStress(sc, p.stressWorkers)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			status := "PASS"
			if len(out.Failures) > 0 {
				status = "FAIL"
				failed++
			}
			st := out.Stress
			fmt.Fprintf(w, "%s %-24s stress: %d nodes, %d servers, %d reps, %d timeline events, %d crashes\n",
				status, sc.Name, st.Nodes, st.TotalServers, st.Replications, st.Timeline, st.Chaos.Crashes)
			if fl != nil {
				if err := writeFlight(sc.Name, fl); err != nil {
					return err
				}
			}
			if p.verbose {
				for r, rep := range out.Reps {
					fmt.Fprintf(w, "     rep %d: md_local %.4f  md_global %.4f  missed_work %.4f  util %.4f  locals %d  globals %d\n",
						r, rep.MDLocal, rep.MDGlobal, rep.MissedWork, rep.Utilization, rep.Locals, rep.Globals)
				}
			}
			for _, f := range out.Failures {
				fmt.Fprintf(w, "     FAIL: %s\n", f)
			}
			if summary != nil {
				if _, err := io.WriteString(summary, out.Summary()); err != nil {
					return err
				}
			}
			continue
		}
		var (
			out  *scenario.Outcome
			tel  *obs.Telemetry
			fold *obs.Merged
			fl   *des.Flight
			err  error
		)
		if p.tel.On() || p.flightDir != "" {
			// Telemetry and the flight recorder never perturb the run, so
			// the golden checks below still apply unchanged.
			info := serve.RunInfo{Label: fmt.Sprintf("%s (%d/%d)", sc.Name, i+1, len(scs)), Replications: 1}
			fold = obs.NewMerged()
			out, tel, err = scenario.RunObserved(sc, p.tel.Options(), func(sys *sim.System) {
				if p.flightDir != "" {
					fl = des.NewFlight()
					sys.Eng.AttachFlight(fl)
				}
				info.Horizon = float64(sys.Horizon())
				p.tel.Attach(sys.Telemetry(), fold, info)
			})
			if err == nil {
				err = p.tel.FinalizeSystem(tel, fold, info)
			}
		} else {
			out, err = scenario.Run(sc)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		fails := append([]string(nil), out.Failures...)
		if !p.bless {
			switch want, ok := p.golden[sc.Name]; {
			case !ok:
				fails = append(fails, fmt.Sprintf("no golden hash (got %s; run sdascen -bless)", out.TraceHash))
			case want != out.TraceHash:
				fails = append(fails, fmt.Sprintf("trace hash %s differs from golden %s", out.TraceHash, want))
			}
		}
		status := "PASS"
		if len(fails) > 0 {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-24s %d events, hash %s\n", status, sc.Name, out.TraceEvents, out.TraceHash)
		if fl != nil {
			if err := writeFlight(sc.Name, fl); err != nil {
				return err
			}
		}
		if tel != nil && p.tel.Dir != "" {
			exportDir := filepath.Join(p.tel.Dir, sc.Name)
			if _, err := obs.ExportBundle(exportDir, fold, tel.Sampler()); err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			fmt.Fprintf(w, "     telemetry exported to %s\n", exportDir)
		}
		if p.verbose {
			fmt.Fprintf(w, "     md_local %.4f  md_global %.4f  md_subtask %.4f  missed_work %.4f  util %.4f  locals %d  globals %d\n",
				out.Rep.MDLocal, out.Rep.MDGlobal, out.Rep.MDSubtask,
				out.Rep.MissedWork, out.Rep.Utilization, out.Rep.Locals, out.Rep.Globals)
		}
		for _, f := range fails {
			fmt.Fprintf(w, "     FAIL: %s\n", f)
		}
		p.golden[sc.Name] = out.TraceHash
	}
	if p.bless {
		if failed > 0 {
			return fmt.Errorf("%d scenario(s) failed; fix them before blessing", failed)
		}
		goldenPath := filepath.Join(p.dir, scenario.GoldenFile)
		if err := scenario.WriteGolden(goldenPath, p.golden); err != nil {
			return err
		}
		fmt.Fprintf(w, "blessed %d hashes into %s\n", len(p.golden), goldenPath)
		return nil
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(scs))
	}
	fmt.Fprintf(w, "all %d scenarios passed\n", len(scs))
	return nil
}
