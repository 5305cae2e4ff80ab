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
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func main() { cli.Main("sdasim", parse) }

func run(args []string, w io.Writer) error { return cli.Run("sdasim", parse, args, w) }

// maxShape caps -stages and -branches: every global task builds that
// many stages or gates up front.
const maxShape = 1 << 10

// plan is a validated sdasim invocation.
type plan struct {
	cfg                sim.Config
	tel                *cli.Telemetry
	recordTo, replayOf string
}

// parse registers the flags on fs and reads and validates args; it
// starts nothing and writes no file.
func parse(fs *flag.FlagSet, args []string) (*plan, error) {
	def := sim.Default()
	def.Duration = 50000
	wl := cli.AddWorkload(fs, def)
	c := &wl.Cfg
	p := &plan{tel: cli.AddTelemetry(fs, "instrument the run with telemetry and export the cross-replication merge (spans/exemplars/metrics/dashboard/summary) into this directory")}
	fs.Float64Var(&c.Spec.FracLocal, "frac-local", c.Spec.FracLocal, "fraction of load due to local tasks")
	fs.Float64Var(&c.Spec.SlackMin, "slack-min", c.Spec.SlackMin, "minimum task slack")
	fs.Float64Var(&c.Spec.SlackMax, "slack-max", c.Spec.SlackMax, "maximum task slack")
	fs.Float64Var(&c.Spec.GlobalSlackMin, "global-slack-min", 0, "global-task slack minimum (0 = use local range)")
	fs.Float64Var(&c.Spec.GlobalSlackMax, "global-slack-max", 0, "global-task slack maximum (0 = use local range)")
	fs.Float64Var((*float64)(&c.Duration), "duration", float64(c.Duration), "measured simulated time per replication")
	fs.Float64Var((*float64)(&c.Warmup), "warmup", float64(c.Warmup), "warmup time (not measured)")
	fs.IntVar(&c.Replications, "reps", c.Replications, "independent replications")
	fs.IntVar(&c.Workers, "workers", 1, "replications run concurrently (results and merged telemetry are identical at any worker count)")
	fs.IntVar(&c.Servers, "servers", 1, "servers per node (M/M/c extension)")
	var (
		factory   = fs.String("factory", "parallel", "global task shape: parallel | uniform | serial | layered | forkjoin | cond")
		stages    = fs.Int("stages", 5, "stages for -factory serial/forkjoin/cond, layers for -factory layered")
		edgeProb  = fs.Float64("edge-prob", 0.3, "extra-edge probability for -factory layered")
		crossProb = fs.Float64("cross-prob", 0.3, "stage-skip edge probability for -factory forkjoin")
		branches  = fs.Int("branches", 2, "gates per conditional fork for -factory cond")
		probsFlag = fs.String("branch-probs", "", "comma-separated branch probabilities for -factory cond (each in (0,1], summing to 1; empty = uniform)")
		abort     = fs.String("abort", "none", "abortion: none | pm | local")
		policy    = fs.String("policy", "edf", "local queue policy: edf | llf | sjf | fifo")
		estimator = fs.String("estimator", "exact", "pex model: exact | mean | noisy:<factor>")
	)
	fs.StringVar(&p.recordTo, "record-trace", "", "write the synthesized arrival trace to this file and exit")
	fs.StringVar(&p.replayOf, "replay-trace", "", "drive the simulation from a recorded trace file, measured up to the later of -warmup + -duration and the last arrival")
	rule := cli.Rule{
		ZeroOK: []string{"frac-local", "warmup", "edge-prob", "cross-prob"},
		Max:    map[string]float64{"stages": maxShape, "branches": maxShape},
	}
	if err := cli.Parse(fs, args, rule); err != nil {
		return nil, err
	}
	cfg, err := wl.Config()
	if err != nil {
		return nil, err
	}
	params := workload.FactoryParams{
		N:         wl.N,
		Stages:    *stages,
		EdgeProb:  *edgeProb,
		CrossProb: *crossProb,
		Branches:  *branches,
	}
	if *factory == "cond" {
		if params.Probs, err = parseProbs(*probsFlag); err != nil {
			return nil, err
		}
	}
	var ok bool
	if cfg.Spec.Factory, cfg.Spec.DagFactory, ok = workload.ParseFactory(*factory, params); !ok {
		return nil, fmt.Errorf("flag -factory: unknown factory %q", *factory)
	}

	if cfg.Spec.Estimator, err = parseEstimator(*estimator); err != nil {
		return nil, err
	}

	if cfg.Abort, ok = sim.ParseAbort(*abort); !ok {
		return nil, fmt.Errorf("flag -abort: unknown abort mode %q", *abort)
	}

	pol, ok := node.ParsePolicy(*policy)
	if !ok {
		return nil, fmt.Errorf("flag -policy: unknown policy %q", *policy)
	}
	cfg.Policy = pol

	// Telemetry rides on the run itself: it never perturbs results, and
	// observed replications still execute on all -workers (each owns a
	// private shard; shards merge deterministically into Result.Obs).
	cfg.Obs = p.tel.Options()
	if err := cli.Bounded(cfg, p.replays()); err != nil {
		return nil, err
	}
	p.cfg = cfg
	return p, nil
}

// replays reports whether Execute replays a trace. -record-trace comes
// first and synthesizes the workload, so with it the synthetic rates'
// task cap applies even when -replay-trace is set too.
func (p *plan) replays() bool { return p.replayOf != "" && p.recordTo == "" }

// Execute runs the plan: record a trace, replay one, or simulate.
func (p *plan) Execute(w io.Writer) error {
	cfg := p.cfg
	// Live observability: every replication attaches its own sampler hook
	// and publishes its final snapshot when it finishes, so /metrics,
	// /progress and /summary aggregate across replications — including
	// concurrent ones. Publishing happens inside existing read-only
	// sampler ticks, so results are bit-identical with and without -serve.
	if err := p.tel.Start(w); err != nil {
		return err
	}
	defer p.tel.Close()
	info := p.tel.Hook(&cfg)

	if p.recordTo != "" {
		arrivals, err := workload.Synthesize(cfg.Spec, cfg.Seed, simtime.Time(cfg.Warmup+cfg.Duration))
		if err != nil {
			return err
		}
		f, err := os.Create(p.recordTo)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := workload.WriteTrace(f, arrivals); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d arrivals to %s\n", len(arrivals), p.recordTo)
		return nil
	}

	if p.replayOf != "" {
		f, err := os.Open(p.replayOf)
		if err != nil {
			return err
		}
		defer f.Close()
		arrivals, err := workload.ReadTrace(f)
		if err != nil {
			return err
		}
		// Replay builds one system outside Run, so the live hub attaches
		// via OnReplication to a fold of its own, which the telemetry joins
		// after the replay and which is then exported as a run's merge is,
		// with the system's sampled time series beside it.
		var replayTel *obs.Telemetry
		fold := obs.NewMerged()
		cfg.OnReplication = func(sys *sim.System) {
			replayTel = sys.Telemetry()
			p.tel.Attach(replayTel, fold, info)
		}
		rep, err := sim.ReplayTrace(cfg, arrivals)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replayed %d arrivals from %s\n", len(arrivals), p.replayOf)
		fmt.Fprintf(w, "tasks counted   %d locals, %d globals\n", rep.Locals, rep.Globals)
		fmt.Fprintf(w, "MD_local        %.4f\n", rep.MDLocal)
		fmt.Fprintf(w, "MD_subtask      %.4f\n", rep.MDSubtask)
		fmt.Fprintf(w, "MD_global       %.4f\n", rep.MDGlobal)
		fmt.Fprintf(w, "missed work     %.4f\n", rep.MissedWork)
		fmt.Fprintf(w, "utilization     %.4f\n", rep.Utilization)
		var sampler *obs.Sampler
		if replayTel != nil {
			if err := replayTel.MergeInto(fold); err != nil {
				return err
			}
			sampler = replayTel.Sampler()
		}
		return p.tel.Export(w, fold, sampler, info)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	printReport(w, cfg, res)
	// The export is the cross-replication merge: every replication's
	// shard folded in index order, bit-identical at any -workers count.
	return p.tel.Export(w, res.Obs, nil, info)
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
			return nil, fmt.Errorf("flag -branch-probs: bad branch probability %q in %q", p, s)
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
			return nil, fmt.Errorf("flag -estimator: bad noisy estimator %q (want noisy:<factor>)", s)
		}
		return workload.Noisy{Factor: f}, nil
	default:
		return nil, fmt.Errorf("flag -estimator: unknown estimator %q", s)
	}
}

func printReport(w io.Writer, cfg sim.Config, res sim.Result) {
	fmt.Fprintln(w, exp.Table1())
	fmt.Fprintf(w, "strategy        %s\n", cfg.Name())
	fmt.Fprintf(w, "workload        %s  load=%g  frac_local=%g  k=%d\n",
		cfg.Spec.FactoryName(), cfg.Spec.Load, cfg.Spec.FracLocal, cfg.Spec.K)
	fmt.Fprintf(w, "abort           %s    queue %s\n", cfg.Abort, cfg.Policy.Name())
	fmt.Fprintf(w, "replications    %d x %v time units (warmup %v)\n",
		cfg.Replications, cfg.Duration, cfg.Warmup)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "tasks counted   %d locals, %d globals\n", res.Locals, res.Globals)
	fmt.Fprintf(w, "MD_local        %s\n", res.MDLocal)
	fmt.Fprintf(w, "MD_subtask      %s\n", res.MDSubtask)
	fmt.Fprintf(w, "MD_global       %s\n", res.MDGlobal)
	if len(res.MDGlobalBy) > 1 {
		for n := 2; n <= 16; n++ {
			if iv, ok := res.MDGlobalBy[n]; ok {
				fmt.Fprintf(w, "MD_global(n=%d)  %s\n", n, iv)
			}
		}
	}
	fmt.Fprintf(w, "missed work     %s\n", res.MissedWork)
	fmt.Fprintf(w, "utilization     %s\n", res.Utilization)
	fmt.Fprintf(w, "resp local      mean %s   p95 %s\n", res.RespLocalMean, res.RespLocalP95)
	fmt.Fprintf(w, "resp global     mean %s   p95 %s\n", res.RespGlobalMean, res.RespGlobalP95)
}
