package scenario

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// burstSeedSalt decorrelates the burst generator from the workload
// driver's substreams (which are split directly from the scenario seed).
const burstSeedSalt = 0x6275727374 // "burst"

// Outcome is the result of one scenario run.
type Outcome struct {
	Scenario *Scenario

	Rep         sim.RepResult // replication statistics (first replication)
	TraceHash   string        // canonical hash of the full event trace ("" on stress runs)
	TraceEvents int           // recorded node scheduling events

	// Reps holds every replication of a stress run (Rep == Reps[0]);
	// regular scenarios run exactly once and leave it nil.
	Reps []sim.RepResult
	// Stress summarizes the expanded fleet and compiled chaos profile of
	// a stress run; nil for regular scenarios.
	Stress *StressInfo

	Violations []string // invariant violations (always part of Failures)
	Failures   []string // failed assertions; empty = scenario passed

	// OracleChecks counts the analytic response-time lower-bound checks the
	// always-on oracle performed; oracle violations are part of Failures.
	OracleChecks int64
}

// Passed reports whether every invariant and assertion held.
func (o *Outcome) Passed() bool { return len(o.Failures) == 0 }

// Run executes the scenario once: it wires a full simulated system, arms
// the injection timeline, runs to the horizon with the invariant checker
// and tracer attached, drains, and evaluates the assertions. The run is
// deterministic: the same scenario produces the same Outcome (including
// TraceHash) on every call. Stress scenarios are dispatched to RunStress
// with sequential replications; call RunStress directly for parallel
// replication workers.
func Run(sc *Scenario) (*Outcome, error) {
	if sc.IsStress() {
		return RunStress(sc, 1)
	}
	out, _, err := runWith(sc, obs.Options{}, nil)
	return out, err
}

// RunObserved is Run with the telemetry layer enabled: it returns the
// run's Telemetry alongside the outcome so callers can export spans,
// metrics, time series and the dashboard. Telemetry never mutates model
// state, so the Outcome — including TraceHash — is identical to Run's.
func RunObserved(sc *Scenario, o obs.Options) (*Outcome, *obs.Telemetry, error) {
	o.Enabled = true
	return runWith(sc, o, nil)
}

// RunObservedWith is RunObserved with a system hook: onSystem runs once
// after the system is wired (telemetry bound, sampler built) and before
// any event fires. The live observability server uses it to attach its
// snapshot hub; the callback must not mutate model state, so the Outcome
// — including TraceHash — stays identical to Run's.
func RunObservedWith(sc *Scenario, o obs.Options, onSystem func(*sim.System)) (*Outcome, *obs.Telemetry, error) {
	o.Enabled = true
	return runWith(sc, o, onSystem)
}

// runWith is the shared engine behind Run and RunObserved.
func runWith(sc *Scenario, o obs.Options, onSystem func(*sim.System)) (*Outcome, *obs.Telemetry, error) {
	if sc.IsStress() {
		return nil, nil, fmt.Errorf("%w: %s: stress scenarios have no telemetry/trace path; use RunStress", ErrBadScenario, sc.Name)
	}
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	cfg, err := sc.Config()
	if err != nil {
		return nil, nil, err
	}
	chk := NewChecker(sc.Assert.AllowEarlyVDL)
	var events node.Log
	cfg.Observer = node.CombineObservers(&events, chk)
	cfg.Obs = o
	cfg.OnSystem = onSystem
	// Always-on analytic oracle: every completion is checked against the
	// response-time lower bound R >= len(G)/maxRate, which holds on every
	// sample path. Baseline node rates and set_rate events can both put
	// nodes above rate 1, so the oracle gets the fastest rate any node
	// can ever reach.
	oracle := analysis.NewOracle()
	oracle.SetMaxRate(oracleMaxRate(cfg.NodeRates, sc.Events))
	cfg.Recorder = procmgr.Recorders(chk, oracle)

	sys, err := sim.NewSystem(cfg, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	chk.Bind(sys.Nodes)
	if err := armTimeline(sys, sc.Name, sc.Seed, sc.Events, cfg.Spec); err != nil {
		return nil, nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, nil, err
	}
	rep := sys.Finish(sys.Horizon())
	chk.Finish()

	out := &Outcome{
		Scenario:     sc,
		Rep:          rep,
		TraceHash:    events.Hash(),
		TraceEvents:  events.Len(),
		Violations:   chk.Violations(),
		OracleChecks: oracle.Checks(),
	}
	for _, v := range out.Violations {
		out.Failures = append(out.Failures, "invariant: "+v)
	}
	for _, v := range oracle.Violations() {
		out.Failures = append(out.Failures, "oracle: "+v)
	}
	if extra := oracle.ViolationCount() - int64(len(oracle.Violations())); extra > 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("oracle: %d further violations suppressed", extra))
	}
	out.Failures = append(out.Failures, sc.Assert.evaluate(rep)...)
	return out, sys.Telemetry(), nil
}

// oracleMaxRate derives the fastest service rate any node can ever run
// at: the max over the per-node baseline rates (1 when unset) and every
// rate the timeline sets. The analytic oracle's response-time lower
// bound R >= len(G)/maxRate divides by it, so under-estimating would
// produce false oracle violations on heterogeneous fleets.
func oracleMaxRate(baseRates []float64, events []Event) float64 {
	maxRate := 1.0
	for _, r := range baseRates {
		if r > maxRate {
			maxRate = r
		}
	}
	for _, ev := range events {
		if ev.Action == ActionSetRate && ev.Rate > maxRate {
			maxRate = ev.Rate
		}
	}
	return maxRate
}

// armTimeline schedules every injected event on the simulation engine.
// Injections are scheduled before arrivals start, so events landing on
// the same instant as an arrival fire in a fixed, documented order:
// injections first. seed feeds the burst generator's substreams (stress
// replications pass their per-replication seed so every replication
// draws independent bursts).
func armTimeline(sys *sim.System, name string, seed uint64, events []Event, spec workload.Spec) error {
	burst := rng.NewSplitter(seed + burstSeedSalt)
	batch := make([]des.BatchEntry, 0, len(events))
	for i := range events {
		ev := events[i]
		var apply func()
		switch ev.Action {
		case ActionCrash:
			apply = func() { sys.Nodes[ev.Node].Crash() }
		case ActionRestart:
			apply = func() { sys.Nodes[ev.Node].Restart() }
		case ActionSetRate:
			apply = func() { sys.Nodes[ev.Node].SetRate(ev.Rate) }
		case ActionSwap:
			var ssp sda.SSP
			var psp sda.PSP
			if ev.SSP != "" {
				s, err := sda.ParseSSP(ev.SSP)
				if err != nil {
					return err
				}
				ssp = s
			}
			if ev.PSP != "" {
				p, err := sda.ParsePSP(ev.PSP)
				if err != nil {
					return err
				}
				psp = p
			}
			apply = func() { sys.Mgr.SetStrategies(ssp, psp) }
		case ActionBurst:
			stream := burst.Stream()
			target := ev.Node
			count := ev.Count
			kind := ev.Kind
			label := fmt.Sprintf("burst-%s@%g", ev.Kind, ev.At)
			apply = func() {
				// Mark the injection window so telemetry links every task
				// this burst submits to the burst marker ("inject" edges in
				// the causal trace). Nil-safe: plain runs have no telemetry.
				if tel := sys.Telemetry(); tel != nil {
					tel.BeginInject(label)
					defer tel.EndInject()
				}
				now := sys.Eng.Now()
				for j := 0; j < count; j++ {
					switch kind {
					case "local":
						nodeID := target
						if nodeID < 0 {
							nodeID = stream.IntN(len(sys.Nodes))
						}
						t := spec.NewLocal(stream, nil, nodeID, now)
						if err := sys.Mgr.SubmitLocal(t); err != nil {
							panic(fmt.Sprintf("scenario: burst local: %v", err))
						}
					case "global":
						if spec.DagFactory != nil {
							g, err := spec.NewGlobalDag(stream, nil, now)
							if err != nil {
								panic(fmt.Sprintf("scenario: burst global DAG: %v", err))
							}
							if err := sys.Mgr.SubmitDag(g); err != nil {
								panic(fmt.Sprintf("scenario: burst global DAG submit: %v", err))
							}
							continue
						}
						root, err := spec.NewGlobal(stream, nil, now)
						if err != nil {
							panic(fmt.Sprintf("scenario: burst global: %v", err))
						}
						if err := sys.Mgr.SubmitGlobal(root); err != nil {
							panic(fmt.Sprintf("scenario: burst global submit: %v", err))
						}
					}
				}
			}
		default:
			return fmt.Errorf("%w: %s: unknown action %q", ErrBadScenario, name, ev.Action)
		}
		batch = append(batch, des.BatchEntry{At: simtime.Time(ev.At), Fn: apply})
	}
	// One batch insert; entries keep timeline order, so same-instant
	// injections still fire in declaration order.
	if err := sys.Eng.ScheduleBatch(batch); err != nil {
		return fmt.Errorf("%w: %s: schedule timeline: %v", ErrBadScenario, name, err)
	}
	return nil
}

// evaluate checks the replication result against the assertion bounds and
// returns one message per failed bound.
func (a Assertions) evaluate(rep sim.RepResult) []string {
	var fails []string
	check := func(cond bool, format string, args ...any) {
		if !cond {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	if a.MDLocalMax != nil {
		check(rep.MDLocal <= *a.MDLocalMax, "md_local %.4f > max %.4f", rep.MDLocal, *a.MDLocalMax)
	}
	if a.MDLocalMin != nil {
		check(rep.MDLocal >= *a.MDLocalMin, "md_local %.4f < min %.4f", rep.MDLocal, *a.MDLocalMin)
	}
	if a.MDGlobalMax != nil {
		check(rep.MDGlobal <= *a.MDGlobalMax, "md_global %.4f > max %.4f", rep.MDGlobal, *a.MDGlobalMax)
	}
	if a.MDGlobalMin != nil {
		check(rep.MDGlobal >= *a.MDGlobalMin, "md_global %.4f < min %.4f", rep.MDGlobal, *a.MDGlobalMin)
	}
	if a.MDSubtaskMax != nil {
		check(rep.MDSubtask <= *a.MDSubtaskMax, "md_subtask %.4f > max %.4f", rep.MDSubtask, *a.MDSubtaskMax)
	}
	if a.MissedWorkMax != nil {
		check(rep.MissedWork <= *a.MissedWorkMax, "missed_work %.4f > max %.4f", rep.MissedWork, *a.MissedWorkMax)
	}
	check(rep.MissedWork >= 0 && rep.MissedWork <= 1, "missed_work %.4f outside [0, 1]", rep.MissedWork)
	if a.UtilizationMin != nil {
		check(rep.Utilization >= *a.UtilizationMin, "utilization %.4f < min %.4f", rep.Utilization, *a.UtilizationMin)
	}
	if a.UtilizationMax != nil {
		check(rep.Utilization <= *a.UtilizationMax, "utilization %.4f > max %.4f", rep.Utilization, *a.UtilizationMax)
	}
	if a.MinEvents != nil {
		check(rep.Events >= *a.MinEvents, "events %d < min %d", rep.Events, *a.MinEvents)
	}
	if a.MaxEvents != nil {
		check(rep.Events <= *a.MaxEvents, "events %d > max %d", rep.Events, *a.MaxEvents)
	}
	if a.MinLocals != nil {
		check(rep.Locals >= *a.MinLocals, "locals %d < min %d", rep.Locals, *a.MinLocals)
	}
	if a.MinGlobals != nil {
		check(rep.Globals >= *a.MinGlobals, "globals %d < min %d", rep.Globals, *a.MinGlobals)
	}
	return fails
}
