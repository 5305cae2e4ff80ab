package scenario

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/par"
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

	// Violations lists the invariant violations, each as it appears in
	// Failures ("invariant: ..." with any "rep N: " prefix).
	Violations []string
	Failures   []string // failed assertions; empty = scenario passed

	// OracleChecks counts the analytic response-time lower-bound checks the
	// always-on oracle performed; oracle violations are part of Failures.
	OracleChecks int64
}

// Passed reports whether every invariant and assertion held.
func (o *Outcome) Passed() bool { return len(o.Failures) == 0 }

// Run executes the scenario: a regular scenario once at its seed with
// the event trace recorded, a stress scenario with its replications run
// one after another (RunStress runs them on parallel workers). The run is
// deterministic: the same scenario produces the same Outcome (including
// TraceHash) on every call.
func Run(sc *Scenario) (*Outcome, error) {
	out, _, err := run(sc, 1, nil)
	return out, err
}

// RunObserved is Run with the telemetry layer enabled on a regular
// scenario; it returns the run's Telemetry for export. onRep, when
// non-nil, becomes the system's sim.Config.OnReplication hook; the live
// observability server attaches its hub there. Neither may mutate model
// state, so the Outcome — including TraceHash — is identical to Run's.
func RunObserved(sc *Scenario, o obs.Options, onRep func(*sim.System)) (*Outcome, *obs.Telemetry, error) {
	if sc.IsStress() {
		return nil, nil, fmt.Errorf("%w: %s: stress scenarios have no telemetry/trace path; use RunStress", ErrBadScenario, sc.Name)
	}
	o.Enabled = true
	out, reps, err := run(sc, 1, func(cfg *sim.Config) {
		cfg.Obs = o
		cfg.OnReplication = onRep
	})
	if err != nil {
		return nil, nil, err
	}
	return out, reps[0].tel, nil
}

// plan is what every replication of a scenario run shares. A regular
// scenario is one replication at its seed with the node.Log trace
// recorded; a stress scenario expands its fleet and compiles its chaos
// profile into the timeline, and runs at sim.RepSeeds seeds.
type plan struct {
	sc      *Scenario
	cfg     sim.Config
	events  []Event
	maxRate float64 // the oracle's fastest node rate
	seeds   []uint64
	stress  *StressInfo // nil for regular scenarios
}

// replica is what one replication leaves for the Outcome; its first
// invariants failures are the invariant violations.
type replica struct {
	rep        sim.RepResult
	failures   []string
	invariants int
	checks     int64          // oracle checks
	trace      *node.Log      // nil on stress runs
	tel        *obs.Telemetry // nil unless telemetry is enabled
	flight     *des.Flight    // nil unless a flight recorder is attached
}

// run executes every replication of sc on up to workers goroutines and
// assembles the Outcome in replication order, so it is bit-identical at
// every worker count. tune, when non-nil, adjusts the shared config.
func run(sc *Scenario, workers int, tune func(*sim.Config)) (*Outcome, []replica, error) {
	p, err := newPlan(sc)
	if err != nil {
		return nil, nil, err
	}
	if tune != nil {
		tune(&p.cfg)
	}
	reps := make([]replica, len(p.seeds))
	err = par.Map(workers, len(reps), func(r int) error {
		var err error
		if reps[r], err = p.replicate(r); err != nil {
			return fmt.Errorf("replication %d: %w", r, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := &Outcome{Scenario: sc, Rep: reps[0].rep, Stress: p.stress}
	if t := reps[0].trace; t != nil {
		out.TraceHash, out.TraceEvents = t.Hash(), t.Len()
	}
	for _, x := range reps {
		if p.stress != nil {
			out.Reps = append(out.Reps, x.rep)
		}
		out.OracleChecks += x.checks
		out.Violations = append(out.Violations, x.failures[:x.invariants]...)
		out.Failures = append(out.Failures, x.failures...)
	}
	return out, reps, nil
}

// newPlan validates sc and builds its plan.
func newPlan(sc *Scenario) (*plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	p := &plan{sc: sc, cfg: cfg, events: sc.Events, seeds: []uint64{sc.Seed}}
	baseRates := cfg.NodeRates
	if st := sc.Stress; st != nil {
		fleet := st.Fleet.expand(sc.Seed)
		p.cfg.NodeRates = fleet.initial // t=0 rates; cold starts ramp up from here
		p.cfg.NodeServers = fleet.servers
		chaos, stats := st.Chaos.compile(fleet, st.Fleet.zones(), sc.Horizon(), sc.Seed)
		p.events = mergeTimelines(fleet.events, chaos, sc.Events)
		baseRates = fleet.base
		p.seeds = sim.RepSeeds(sc.Seed, st.replications())
		p.stress = &StressInfo{
			Nodes:        st.Fleet.Nodes,
			ScaledFrom:   st.scaledFrom,
			Zones:        st.Fleet.zones(),
			TotalServers: fleet.totalServers(),
			Templates:    fleet.counts,
			Replications: len(p.seeds),
			Timeline:     len(p.events),
			Chaos:        stats,
		}
	}
	// Always-on analytic oracle: every completion is checked against the
	// response-time lower bound R >= len(G)/maxRate, which holds on every
	// sample path. Baseline node rates and set_rate events can both put
	// nodes above rate 1, so the oracle gets the fastest rate any node
	// can ever reach.
	p.maxRate = oracleMaxRate(baseRates, p.events)
	return p, nil
}

// replicate runs replication r with its own invariant checker and
// oracle and lists its failures, prefixed with r when the run has several.
func (p *plan) replicate(r int) (replica, error) {
	cfg := p.cfg // by value: each replication owns its hooks
	chk := NewChecker(p.sc.Assert.AllowEarlyVDL)
	oracle := analysis.NewOracle()
	oracle.SetMaxRate(p.maxRate)
	var x replica
	cfg.Observer = chk
	if p.stress == nil {
		x.trace = new(node.Log)
		cfg.Observer = node.CombineObservers(x.trace, chk)
	}
	cfg.Recorder = procmgr.Recorders(chk, oracle)

	seed := p.seeds[r]
	sys, err := sim.NewSystem(cfg, seed)
	if err != nil {
		return replica{}, err
	}
	chk.Bind(sys.Nodes)
	if err := armTimeline(sys, p.sc.Name, seed, p.events, cfg.Spec); err != nil {
		return replica{}, err
	}
	if err := sys.Start(); err != nil {
		return replica{}, err
	}
	x.rep = sys.Finish(sys.Horizon())
	x.tel, x.flight = sys.Telemetry(), sys.Eng.Flight()
	chk.Finish()

	prefix := ""
	if len(p.seeds) > 1 {
		prefix = fmt.Sprintf("rep %d: ", r)
	}
	fail := func(format string, args ...any) { x.failures = append(x.failures, prefix+fmt.Sprintf(format, args...)) }
	for _, v := range chk.Violations() {
		fail("invariant: %s", v)
	}
	x.invariants = len(x.failures)
	for _, v := range oracle.Violations() {
		fail("oracle: %s", v)
	}
	if extra := oracle.ViolationCount() - int64(len(oracle.Violations())); extra > 0 {
		fail("oracle: %d further violations suppressed", extra)
	}
	if p.stress == nil || p.stress.ScaledFrom == 0 {
		for _, f := range p.sc.Assert.evaluate(x.rep) {
			fail("%s", f)
		}
	}
	x.checks = oracle.Checks()
	return x, nil
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
						if err := spec.SubmitGlobal(sys.Mgr, stream, nil, now); err != nil {
							panic(fmt.Sprintf("scenario: burst global: %v", err))
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
