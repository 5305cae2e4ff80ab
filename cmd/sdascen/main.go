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
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdascen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sdascen", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "testdata/scenarios", "directory holding scenario *.json files")
		bless    = fs.Bool("bless", false, "rewrite the golden hash registry from this run")
		list     = fs.Bool("list", false, "list scenarios and exit")
		verbose  = fs.Bool("v", false, "print per-scenario metrics")
		obsDir   = fs.String("obs", "", "run with telemetry and export spans/metrics/timeseries/dashboard per scenario into this directory")
		obsSpans = fs.Int("obs-max-spans", 0, "per-run span retention budget (0 = default 65536); evicted spans are counted, aggregates stay exact")

		flightDir = fs.String("flight", "", "attach the kernel flight recorder and write each scenario's lookahead-feasibility report (<name>.flight.md + .prom) into this directory")

		serveAddr = fs.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :8080); implies telemetry")
		serveEvry = fs.Int("serve-every", serve.DefaultEvery, "publish a live snapshot every N sampler ticks")
		serveHold = fs.Duration("serve-hold", 0, "keep the observability server up this long after the suite")

		stressScale   = fs.Int("stress-scale", 1, "divide stress-scenario fleet sizes by this factor (smoke runs; band assertions are skipped when > 1)")
		stressWorkers = fs.Int("stress-workers", 0, "replication workers for stress scenarios (0 = GOMAXPROCS); results are identical at every count")
		summaryPath   = fs.String("summary", "", "append each stress scenario's deterministic outcome summary to this file (\"-\" = stdout), for cmp-based determinism checks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scs, err := scenario.LoadDir(*dir)
	if err != nil {
		return err
	}
	if len(scs) == 0 {
		return fmt.Errorf("no scenario files in %s", *dir)
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
				return fmt.Errorf("unknown scenario %q (use -list)", name)
			}
			subset = append(subset, sc)
		}
		scs = subset
	}
	if *list {
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
	if *summaryPath == "-" {
		summary = w
	} else if *summaryPath != "" {
		f, err := os.Create(*summaryPath)
		if err != nil {
			return err
		}
		defer f.Close()
		summary = f
	}

	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return err
		}
	}
	// writeFlight exports one scenario's flight-recorder findings: the
	// markdown lookahead-feasibility report and the Prometheus exposition.
	writeFlight := func(name string, fl *des.Flight) error {
		md := filepath.Join(*flightDir, name+".flight.md")
		if err := os.WriteFile(md, []byte(fl.Report(name)), 0o644); err != nil {
			return err
		}
		var buf strings.Builder
		if err := fl.WritePrometheus(&buf); err != nil {
			return err
		}
		prom := filepath.Join(*flightDir, name+".flight.prom")
		if err := os.WriteFile(prom, []byte(buf.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "     flight report: %s\n", md)
		return nil
	}

	goldenPath := filepath.Join(*dir, scenario.GoldenFile)
	golden, err := scenario.ReadGolden(goldenPath)
	if err != nil {
		return err
	}

	// Live observability: one server spans the whole suite; each scenario
	// attaches the hub to its own telemetry sampler and publishes its
	// final snapshot when it ends (the hub starts a fresh run for the
	// next scenario). Snapshots publish inside existing read-only sampler
	// ticks, so golden hashes are unaffected by -serve.
	var srv *serve.Server
	if *serveAddr != "" {
		s, err := serve.Start(*serveAddr, serve.NewHub(0))
		if err != nil {
			return err
		}
		srv = s
		defer srv.Close()
		fmt.Fprintf(w, "live telemetry on http://%s (endpoints: /metrics /progress /spans /blame)\n", srv.Addr())
		defer func() {
			if *serveHold > 0 {
				fmt.Fprintf(w, "holding observability server for %v\n", *serveHold)
				time.Sleep(*serveHold)
			}
		}()
	}

	failed := 0
	for i, sc := range scs {
		if sc.IsStress() {
			// Stress scenarios: templated fleet + seeded chaos, no golden
			// hash (judged by invariants, the oracle and the Assert bands).
			sc.ApplyStressScale(*stressScale)
			var (
				out *scenario.Outcome
				fl  *des.Flight
				err error
			)
			if *flightDir != "" {
				out, fl, err = scenario.RunStressFlight(sc, *stressWorkers)
			} else {
				out, err = scenario.RunStress(sc, *stressWorkers)
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
			if *verbose {
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
			out *scenario.Outcome
			tel *obs.Telemetry
			fl  *des.Flight
			err error
		)
		if *obsDir != "" || srv != nil || *flightDir != "" {
			// Telemetry and the flight recorder never perturb the run, so
			// the golden checks below still apply unchanged.
			var onSystem func(*sim.System)
			info := serve.RunInfo{Label: fmt.Sprintf("%s (%d/%d)", sc.Name, i+1, len(scs)), Replications: 1}
			if srv != nil || *flightDir != "" {
				onSystem = func(sys *sim.System) {
					if *flightDir != "" {
						fl = des.NewFlight(len(sys.Nodes))
						sys.Eng.AttachFlight(fl)
					}
					if srv != nil {
						info.Horizon = float64(sys.Horizon())
						srv.Hub().Attach(sys.Telemetry(), info, *serveEvry)
					}
				}
			}
			out, tel, err = scenario.RunObservedWith(sc, obs.Options{MaxSpans: *obsSpans}, onSystem)
			if err == nil && srv != nil && tel != nil {
				srv.Hub().Publish(tel, info, info.Horizon, true)
			}
		} else {
			out, err = scenario.Run(sc)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		fails := append([]string(nil), out.Failures...)
		if !*bless {
			switch want, ok := golden[sc.Name]; {
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
		if tel != nil && *obsDir != "" {
			exportDir := filepath.Join(*obsDir, sc.Name)
			if _, err := tel.ExportDir(exportDir); err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			fmt.Fprintf(w, "     telemetry exported to %s\n", exportDir)
		}
		if *verbose {
			fmt.Fprintf(w, "     md_local %.4f  md_global %.4f  md_subtask %.4f  missed_work %.4f  util %.4f  locals %d  globals %d\n",
				out.Rep.MDLocal, out.Rep.MDGlobal, out.Rep.MDSubtask,
				out.Rep.MissedWork, out.Rep.Utilization, out.Rep.Locals, out.Rep.Globals)
		}
		for _, f := range fails {
			fmt.Fprintf(w, "     FAIL: %s\n", f)
		}
		golden[sc.Name] = out.TraceHash
	}
	if *bless {
		if failed > 0 {
			return fmt.Errorf("%d scenario(s) failed; fix them before blessing", failed)
		}
		if err := scenario.WriteGolden(goldenPath, golden); err != nil {
			return err
		}
		fmt.Fprintf(w, "blessed %d hashes into %s\n", len(golden), goldenPath)
		return nil
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(scs))
	}
	fmt.Fprintf(w, "all %d scenarios passed\n", len(scs))
	return nil
}
