package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/par"
	"repro/internal/procmgr"
	"repro/internal/sim"
)

// Stress is the fleet-scale stress section of a scenario: a templated
// fleet expanded deterministically from the scenario seed plus a seeded
// chaos profile compiled into the injection timeline. Stress scenarios
// skip the golden trace hash (tracing a 10k-node fleet is pointless and
// slow) and are judged by the always-on invariant checker, the analytic
// response-time oracle, and the Assert bands, evaluated per replication.
type Stress struct {
	Fleet Fleet `json:"fleet"`
	Chaos Chaos `json:"chaos,omitempty"`

	// Replications runs the scenario several times with seeds derived
	// exactly like sim.Run derives them (sim.RepSeed); every replication
	// gets its own checker and oracle, so replications can run on
	// parallel workers with bit-identical results at any worker count.
	// Default 1.
	Replications int `json:"replications,omitempty"`

	// scaledFrom records the original fleet size after ApplyStressScale
	// shrank the fleet (0 = unscaled). Scaled runs keep the invariant and
	// oracle checks but skip the Assert bands, which were calibrated for
	// the full-size fleet.
	scaledFrom int
}

// replications returns the replication count with the default applied.
func (st *Stress) replications() int {
	if st.Replications == 0 {
		return 1
	}
	return st.Replications
}

// validate checks the stress section and charges its expected work to b.
// sc is the defaults-applied scenario (Workload.K already derived from
// the fleet when the file left it zero).
func (st *Stress) validate(sc *Scenario, b *workBudget) error {
	if err := st.Fleet.validate(sc.Name, sc.Horizon(), b); err != nil {
		return err
	}
	if sc.Workload.K != st.Fleet.Nodes {
		return fmt.Errorf("%w: %s: workload k %d contradicts fleet nodes %d (leave k at 0 to derive it)",
			ErrBadScenario, sc.Name, sc.Workload.K, st.Fleet.Nodes)
	}
	if st.Replications < 0 {
		return fmt.Errorf("%w: %s: negative replications %d", ErrBadScenario, sc.Name, st.Replications)
	}
	zoneSize := (st.Fleet.Nodes + st.Fleet.zones() - 1) / st.Fleet.zones()
	return st.Chaos.validate(sc.Name, sc.Horizon(), sc.Workload.FracLocal, b, zoneSize)
}

// ApplyStressScale shrinks a stress scenario's fleet (and burst-storm
// volume) by the given integer factor, for CI smoke runs and `go test`
// where a full 10k-node fleet would blow the time budget. Scaled runs
// keep the invariant and oracle checks but skip the Assert bands. A
// factor <= 1 or a non-stress scenario is a no-op.
func (s *Scenario) ApplyStressScale(scale int) {
	if s.Stress == nil || scale <= 1 {
		return
	}
	f := &s.Stress.Fleet
	s.Stress.scaledFrom = f.Nodes
	f.Nodes = f.Nodes / scale
	if f.Nodes < 1 {
		f.Nodes = 1
	}
	if f.Zones > f.Nodes {
		f.Zones = f.Nodes
	}
	if s.Workload.K != 0 {
		s.Workload.K = f.Nodes
	}
	for i := range s.Stress.Chaos.BurstStorms {
		b := &s.Stress.Chaos.BurstStorms[i]
		if b.Count = b.Count / scale; b.Count < 1 {
			b.Count = 1
		}
	}
}

// StressInfo summarizes what the stress machinery actually built and
// injected, for the outcome summary and the CLI.
type StressInfo struct {
	Nodes        int   // fleet size (after any ApplyStressScale)
	ScaledFrom   int   // original fleet size when scaled, else 0
	Zones        int   // failure domains
	TotalServers int   // fleet-wide server count
	Templates    []int // nodes per template, in declaration order
	Replications int
	Timeline     int // compiled timeline events (cold-start + chaos + explicit)
	Chaos        chaosStats
}

// RunStress executes a stress scenario: the fleet template generator
// expands the fleet, the chaos engine compiles its profile into the
// timeline, and every replication runs with its own invariant checker
// and analytic oracle attached. Replications execute on up to workers
// goroutines; seeds and result order are fixed up front, so the Outcome
// — and its Summary — are bit-identical at every worker count.
func RunStress(s *Scenario, workers int) (*Outcome, error) {
	out, _, err := runStress(s, workers, false)
	return out, err
}

// RunStressFlight is RunStress with the kernel flight recorder attached
// to every replication's engine. The returned Flight is the cross-
// replication merge — order-independent, so it is bit-identical at every
// worker count — and feeds the lookahead-feasibility report
// (des.Flight.Report). The tap is allocation-free and does not perturb
// the model: the Outcome matches RunStress exactly.
func RunStressFlight(s *Scenario, workers int) (*Outcome, *des.Flight, error) {
	return runStress(s, workers, true)
}

func runStress(s *Scenario, workers int, flight bool) (*Outcome, *des.Flight, error) {
	if !s.IsStress() {
		return nil, nil, fmt.Errorf("%w: %s: not a stress scenario", ErrBadScenario, s.Name)
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, nil, err
	}
	cfg.Flight = flight
	st := s.Stress
	plan := st.Fleet.expand(s.Seed)
	cfg.NodeRates = plan.initial // t=0 rates; cold starts ramp up from here
	cfg.NodeServers = plan.servers

	chaosEvents, stats := st.Chaos.compile(plan, st.Fleet.zones(), s.Horizon(), s.Seed)
	events := mergeTimelines(plan.events, chaosEvents, s.Events)
	maxRate := oracleMaxRate(plan.base, events)

	reps := st.replications()
	results := make([]sim.RepResult, reps)
	perRep := make([][]string, reps)  // failures per replication
	perViol := make([][]string, reps) // invariant violations per replication
	checks := make([]int64, reps)
	var flights []*des.Flight
	if flight {
		flights = make([]*des.Flight, reps)
	}
	seeds := make([]uint64, reps)
	for r := range seeds {
		seeds[r] = sim.RepSeed(s.Seed, r)
	}
	err = par.Map(workers, reps, func(r int) error {
		repCfg := cfg // by value: each replication owns its hooks
		chk := NewChecker(s.Assert.AllowEarlyVDL)
		oracle := analysis.NewOracle()
		oracle.SetMaxRate(maxRate)
		repCfg.Observer = chk
		repCfg.Recorder = procmgr.Recorders(chk, oracle)

		sys, err := sim.NewSystem(repCfg, seeds[r])
		if err != nil {
			return fmt.Errorf("replication %d: %w", r, err)
		}
		chk.Bind(sys.Nodes)
		if err := armTimeline(sys, s.Name, seeds[r], events, repCfg.Spec); err != nil {
			return fmt.Errorf("replication %d: %w", r, err)
		}
		if err := sys.Start(); err != nil {
			return fmt.Errorf("replication %d: %w", r, err)
		}
		results[r] = sys.Finish(sys.Horizon())
		chk.Finish()
		if flights != nil {
			flights[r] = sys.Eng.Flight()
		}

		perViol[r] = chk.Violations()
		var fails []string
		for _, v := range perViol[r] {
			fails = append(fails, "invariant: "+v)
		}
		for _, v := range oracle.Violations() {
			fails = append(fails, "oracle: "+v)
		}
		if extra := oracle.ViolationCount() - int64(len(oracle.Violations())); extra > 0 {
			fails = append(fails, fmt.Sprintf("oracle: %d further violations suppressed", extra))
		}
		if st.scaledFrom == 0 {
			fails = append(fails, s.Assert.evaluate(results[r])...)
		}
		perRep[r] = fails
		checks[r] = oracle.Checks()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var agg *des.Flight
	if flights != nil {
		agg = des.NewFlight(cfg.Spec.K)
		for r, fl := range flights {
			if fl == nil {
				continue
			}
			if err := agg.Merge(fl); err != nil {
				return nil, nil, fmt.Errorf("replication %d: merge flight: %w", r, err)
			}
		}
	}

	out := &Outcome{
		Scenario: s,
		Rep:      results[0],
		Reps:     results,
		Stress: &StressInfo{
			Nodes:        st.Fleet.Nodes,
			ScaledFrom:   st.scaledFrom,
			Zones:        st.Fleet.zones(),
			TotalServers: plan.totalServers(),
			Templates:    plan.counts,
			Replications: reps,
			Timeline:     len(events),
			Chaos:        stats,
		},
	}
	for r := range perRep {
		out.OracleChecks += checks[r]
		prefix := ""
		if reps > 1 {
			prefix = fmt.Sprintf("rep %d: ", r)
		}
		for _, v := range perViol[r] {
			out.Violations = append(out.Violations, prefix+"invariant: "+v)
		}
		for _, f := range perRep[r] {
			out.Failures = append(out.Failures, prefix+f)
		}
	}
	return out, agg, nil
}

// mergeTimelines folds the cold-start ramps, the compiled chaos events
// and the scenario's explicit events into one time-ordered timeline. The
// sort is stable, so same-instant events keep their source order
// (cold-start, then chaos in walk order — restarts armed before any
// same-instant crash of a later occurrence — then explicit events in
// declaration order), which ScheduleBatch preserves at runtime.
func mergeTimelines(groups ...[]Event) []Event {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	merged := make([]Event, 0, total)
	for _, g := range groups {
		merged = append(merged, g...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].At < merged[j].At })
	return merged
}

// Summary renders the outcome as a deterministic, byte-stable text block:
// the same scenario and seed produce the identical summary on every run
// at every worker count, so CI can diff two runs with cmp. Per-replication
// statistics are printed directly (no cross-replication float folding,
// whose rounding could depend on aggregation order).
func (o *Outcome) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed %d\n", o.Scenario.Name, o.Scenario.Seed)
	if st := o.Stress; st != nil {
		fmt.Fprintf(&b, "fleet nodes=%d zones=%d servers=%d", st.Nodes, st.Zones, st.TotalServers)
		if st.ScaledFrom != 0 {
			fmt.Fprintf(&b, " (scaled from %d; bands skipped)", st.ScaledFrom)
		}
		b.WriteString("\n")
		for i, n := range st.Templates {
			fmt.Fprintf(&b, "template %s nodes=%d\n", o.Scenario.Stress.Fleet.Templates[i].Name, n)
		}
		c := st.Chaos
		fmt.Fprintf(&b, "timeline events=%d crashes=%d zone_hits=%d degrades=%d bursts=%d dropped=%d\n",
			st.Timeline, c.Crashes, c.ZoneHits, c.Degrades, c.Bursts, c.Dropped)
	}
	reps := o.Reps
	if len(reps) == 0 {
		reps = []sim.RepResult{o.Rep}
	}
	for r, rep := range reps {
		fmt.Fprintf(&b, "rep %d events=%d locals=%d globals=%d subtasks=%d\n",
			r, rep.Events, rep.Locals, rep.Globals, rep.Subtasks)
		fmt.Fprintf(&b, "rep %d md_local=%.6f md_global=%.6f md_subtask=%.6f missed_work=%.6f util=%.6f qlen=%.6f\n",
			r, rep.MDLocal, rep.MDGlobal, rep.MDSubtask, rep.MissedWork, rep.Utilization, rep.MeanQueueLen)
	}
	fmt.Fprintf(&b, "oracle checks=%d\n", o.OracleChecks)
	if o.Passed() {
		b.WriteString("PASS\n")
	} else {
		fmt.Fprintf(&b, "FAIL (%d)\n", len(o.Failures))
		for _, f := range o.Failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	return b.String()
}
