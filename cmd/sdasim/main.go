// Command sdasim runs a single deadline-assignment simulation and prints a
// report: per-class miss rates with confidence intervals, missed-work
// fraction and utilization.
//
// Example:
//
//	sdasim -load 0.5 -psp DIV-1 -duration 200000 -reps 2
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdasim", flag.ContinueOnError)
	var (
		k         = fs.Int("k", 6, "number of nodes")
		n         = fs.Int("n", 4, "parallel subtasks per global task")
		load      = fs.Float64("load", 0.5, "normalized load (0 <= load < 1 for stability)")
		fracLocal = fs.Float64("frac-local", 0.75, "fraction of load due to local tasks")
		slackMin  = fs.Float64("slack-min", 1.25, "minimum task slack")
		slackMax  = fs.Float64("slack-max", 5.0, "maximum task slack")
		gSlackMin = fs.Float64("global-slack-min", 0, "global-task slack minimum (0 = use local range)")
		gSlackMax = fs.Float64("global-slack-max", 0, "global-task slack maximum (0 = use local range)")
		factory   = fs.String("factory", "parallel", "global task shape: parallel | uniform | serial | layered | forkjoin | cond")
		stages    = fs.Int("stages", 5, "stages for -factory serial/forkjoin/cond, layers for -factory layered")
		edgeProb  = fs.Float64("edge-prob", 0.3, "extra-edge probability for -factory layered")
		crossProb = fs.Float64("cross-prob", 0.3, "stage-skip edge probability for -factory forkjoin")
		branches  = fs.Int("branches", 2, "gates per conditional fork for -factory cond")
		probsFlag = fs.String("branch-probs", "", "comma-separated branch probabilities for -factory cond (each in (0,1], summing to 1; empty = uniform)")
		sspName   = fs.String("ssp", "UD", "serial strategy: "+strings.Join(sda.SSPNames(), " | "))
		pspName   = fs.String("psp", "UD", "parallel strategy: "+strings.Join(sda.PSPNames(), " | "))
		abort     = fs.String("abort", "none", "abortion: none | pm | local")
		policy    = fs.String("policy", "edf", "local queue policy: edf | llf | sjf | fifo")
		estimator = fs.String("estimator", "exact", "pex model: exact | mean | noisy:<factor>")
		duration  = fs.Float64("duration", 50000, "measured simulated time per replication")
		warmup    = fs.Float64("warmup", 1000, "warmup time (not measured)")
		reps      = fs.Int("reps", 2, "independent replications")
		workers   = fs.Int("workers", 1, "replications run concurrently (results and merged telemetry are identical at any worker count)")
		servers   = fs.Int("servers", 1, "servers per node (M/M/c extension)")
		seed      = fs.Uint64("seed", 1, "master random seed")
		recordTo  = fs.String("record-trace", "", "write the synthesized arrival trace to this file and exit")
		replayOf  = fs.String("replay-trace", "", "drive the simulation from a recorded trace file")
		obsDir    = fs.String("obs", "", "instrument the run with telemetry and export the cross-replication merge (spans/exemplars/metrics/dashboard/summary) into this directory")
		obsSpans  = fs.Int("obs-max-spans", 0, "per-replication span retention budget (0 = default 65536); the merged export trims to the same budget")
		serveAddr = fs.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :8080); implies telemetry")
		serveEvry = fs.Int("serve-every", serve.DefaultEvery, "publish a live snapshot every N sampler ticks")
		serveHold = fs.Duration("serve-hold", 0, "keep the observability server up this long after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := sim.Default()
	cfg.Spec.K = *k
	cfg.Spec.Load = *load
	cfg.Spec.FracLocal = *fracLocal
	cfg.Spec.SlackMin = *slackMin
	cfg.Spec.SlackMax = *slackMax
	cfg.Spec.GlobalSlackMin = *gSlackMin
	cfg.Spec.GlobalSlackMax = *gSlackMax
	cfg.Duration = simtime.Duration(*duration)
	cfg.Warmup = simtime.Duration(*warmup)
	cfg.Replications = *reps
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.Servers = *servers

	switch *factory {
	case "parallel":
		cfg.Spec.Factory = workload.FixedParallel{N: *n}
	case "uniform":
		cfg.Spec.Factory = workload.UniformParallel{Min: 2, Max: *n}
	case "serial":
		cfg.Spec.Factory = workload.SerialParallel{Stages: *stages, Fanout: *n}
	case "layered":
		cfg.Spec.Factory = nil
		cfg.Spec.DagFactory = workload.LayeredDag{Layers: *stages, MinWidth: 1, MaxWidth: *n, EdgeProb: *edgeProb}
	case "forkjoin":
		cfg.Spec.Factory = nil
		cfg.Spec.DagFactory = workload.ForkJoinDag{Stages: *stages, Fanout: *n, CrossProb: *crossProb}
	case "cond":
		probs, err := parseProbs(*probsFlag)
		if err != nil {
			return err
		}
		cfg.Spec.Factory = nil
		cfg.Spec.DagFactory = workload.ConditionalDag{Stages: *stages, Branches: *branches, Width: *n, Probs: probs}
	default:
		return fmt.Errorf("unknown factory %q", *factory)
	}

	est, err := parseEstimator(*estimator)
	if err != nil {
		return err
	}
	cfg.Spec.Estimator = est

	if cfg.SSP, err = sda.ParseSSP(*sspName); err != nil {
		return err
	}
	if cfg.PSP, err = sda.ParsePSP(*pspName); err != nil {
		return err
	}

	switch *abort {
	case "none":
		cfg.Abort = sim.AbortNone
	case "pm":
		cfg.Abort = sim.AbortProcessManager
	case "local":
		cfg.Abort = sim.AbortLocalScheduler
	default:
		return fmt.Errorf("unknown abort mode %q", *abort)
	}

	pol, ok := node.ParsePolicy(*policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	cfg.Policy = pol

	// Telemetry rides on the run itself: it never perturbs results, and
	// observed replications still execute on all -workers (each owns a
	// private shard; shards merge deterministically into Result.Obs).
	if *obsDir != "" || *serveAddr != "" {
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: *obsSpans}
	}

	// Live observability: every replication attaches its own sampler hook
	// and publishes its final snapshot when it finishes, so /metrics,
	// /progress and /summary aggregate across replications — including
	// concurrent ones. Publishing happens inside existing read-only
	// sampler ticks, so results are bit-identical with and without -serve.
	var (
		srv  *serve.Server
		info serve.RunInfo
	)
	if *serveAddr != "" {
		hub := serve.NewHub(0)
		s, err := serve.Start(*serveAddr, hub)
		if err != nil {
			return err
		}
		srv = s
		defer srv.Close()
		fmt.Printf("live telemetry on http://%s (endpoints: /metrics /progress /spans /blame)\n", srv.Addr())
		info = serve.RunInfo{
			Label:        cfg.Name(),
			Replications: cfg.Replications,
			Horizon:      float64(cfg.Warmup + cfg.Duration),
		}
		cfg.OnReplication = func(sys *sim.System) {
			hub.Attach(sys.Telemetry(), info, *serveEvry)
		}
		cfg.OnReplicationDone = func(sys *sim.System) {
			hub.Publish(sys.Telemetry(), info, float64(sys.Horizon()), true)
		}
		defer func() {
			if *serveHold > 0 {
				fmt.Printf("holding observability server for %v\n", *serveHold)
				time.Sleep(*serveHold)
			}
		}()
	}

	if *recordTo != "" {
		arrivals, err := workload.Synthesize(cfg.Spec, cfg.Seed, simtime.Time(cfg.Warmup+cfg.Duration))
		if err != nil {
			return err
		}
		f, err := os.Create(*recordTo)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := workload.WriteTrace(f, arrivals); err != nil {
			return err
		}
		fmt.Printf("wrote %d arrivals to %s\n", len(arrivals), *recordTo)
		return nil
	}

	if *replayOf != "" {
		f, err := os.Open(*replayOf)
		if err != nil {
			return err
		}
		defer f.Close()
		arrivals, err := workload.ReadTrace(f)
		if err != nil {
			return err
		}
		// Replay builds one system directly, so the live hub attaches via
		// OnSystem and the final snapshot publishes after the replay.
		var replayTel *obs.Telemetry
		if srv != nil {
			cfg.OnSystem = func(sys *sim.System) {
				replayTel = sys.Telemetry()
				srv.Hub().Attach(replayTel, info, *serveEvry)
			}
		}
		rep, err := sim.ReplayTrace(cfg, arrivals)
		if err != nil {
			return err
		}
		if srv != nil && replayTel != nil {
			srv.Hub().Publish(replayTel, info, info.Horizon, true)
		}
		fmt.Printf("replayed %d arrivals from %s\n", len(arrivals), *replayOf)
		fmt.Printf("tasks counted   %d locals, %d globals\n", rep.Locals, rep.Globals)
		fmt.Printf("MD_local        %.4f\n", rep.MDLocal)
		fmt.Printf("MD_subtask      %.4f\n", rep.MDSubtask)
		fmt.Printf("MD_global       %.4f\n", rep.MDGlobal)
		fmt.Printf("missed work     %.4f\n", rep.MissedWork)
		fmt.Printf("utilization     %.4f\n", rep.Utilization)
		return nil
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	printReport(cfg, res)

	if srv != nil {
		// Pin the served artifacts to the exact end-of-run aggregate: from
		// here /metrics, /summary and /blame match the merged export byte
		// for byte.
		srv.Hub().Finalize(res.Obs, info)
	}
	if *obsDir != "" {
		if err := exportMerged(res.Obs, *obsDir); err != nil {
			return err
		}
	}
	return nil
}

// exportMerged writes the run's cross-replication telemetry merge into
// dir: every replication's shard folded in index order, bit-identical at
// any -workers count.
func exportMerged(m *obs.Merged, dir string) error {
	paths, err := m.ExportDir(dir)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(m.Snapshot().Summary())
	fmt.Printf("telemetry exported: %s\n", strings.Join(paths, " "))
	return nil
}

// parseProbs parses the -branch-probs comma list; empty means uniform
// (nil). Range and sum validation is left to the factory's Validate.
func parseProbs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	probs := make([]float64, len(parts))
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &probs[i]); err != nil {
			return nil, fmt.Errorf("bad branch probability %q in %q", p, s)
		}
	}
	return probs, nil
}

func parseEstimator(s string) (workload.Estimator, error) {
	switch {
	case s == "exact":
		return workload.Exact{}, nil
	case s == "mean":
		return workload.Mean{}, nil
	case strings.HasPrefix(s, "noisy:"):
		var f float64
		// Negated so that NaN fails too; an infinite factor fails the bound.
		if _, err := fmt.Sscanf(s, "noisy:%g", &f); err != nil || !(f > 0 && f <= math.MaxFloat64) {
			return nil, fmt.Errorf("bad noisy estimator %q (want noisy:<factor>)", s)
		}
		return workload.Noisy{Factor: f}, nil
	default:
		return nil, fmt.Errorf("unknown estimator %q", s)
	}
}

func printReport(cfg sim.Config, res sim.Result) {
	fmt.Println(exp.Table1())
	fmt.Printf("strategy        %s\n", cfg.Name())
	fmt.Printf("workload        %s  load=%g  frac_local=%g  k=%d\n",
		cfg.Spec.FactoryName(), cfg.Spec.Load, cfg.Spec.FracLocal, cfg.Spec.K)
	fmt.Printf("abort           %s    queue %s\n", cfg.Abort, cfg.Policy.Name())
	fmt.Printf("replications    %d x %v time units (warmup %v)\n",
		cfg.Replications, cfg.Duration, cfg.Warmup)
	fmt.Println()
	fmt.Printf("tasks counted   %d locals, %d globals\n", res.Locals, res.Globals)
	fmt.Printf("MD_local        %s\n", res.MDLocal)
	fmt.Printf("MD_subtask      %s\n", res.MDSubtask)
	fmt.Printf("MD_global       %s\n", res.MDGlobal)
	if len(res.MDGlobalBy) > 1 {
		for n := 2; n <= 16; n++ {
			if iv, ok := res.MDGlobalBy[n]; ok {
				fmt.Printf("MD_global(n=%d)  %s\n", n, iv)
			}
		}
	}
	fmt.Printf("missed work     %s\n", res.MissedWork)
	fmt.Printf("utilization     %s\n", res.Utilization)
	fmt.Printf("resp local      mean %s   p95 %s\n", res.RespLocalMean, res.RespLocalP95)
	fmt.Printf("resp global     mean %s   p95 %s\n", res.RespGlobalMean, res.RespGlobalP95)
}
