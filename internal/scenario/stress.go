package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/des"
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
	// Default 1, at most maxReplications.
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
	if st.Replications < 0 || st.Replications > maxReplications {
		return fmt.Errorf("%w: %s: replications %d outside [0, %d]", ErrBadScenario, sc.Name, st.Replications, maxReplications)
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

// RunStress executes a stress scenario's replications on up to workers
// goroutines; the Outcome and its Summary are bit-identical at every
// worker count.
func RunStress(s *Scenario, workers int) (*Outcome, error) {
	if !s.IsStress() {
		return nil, fmt.Errorf("%w: %s: not a stress scenario", ErrBadScenario, s.Name)
	}
	out, _, err := run(s, workers, nil)
	return out, err
}

// RunStressFlight is RunStress with the kernel flight recorder attached
// to every replication's engine; it returns their merge, which feeds the
// flight report (des.Flight.Report). The tap does not perturb the model:
// the Outcome matches RunStress exactly.
func RunStressFlight(s *Scenario, workers int) (*Outcome, *des.Flight, error) {
	if !s.IsStress() {
		return nil, nil, fmt.Errorf("%w: %s: not a stress scenario", ErrBadScenario, s.Name)
	}
	out, reps, err := run(s, workers, func(cfg *sim.Config) { cfg.Flight = true })
	if err != nil {
		return nil, nil, err
	}
	flights := make([]*des.Flight, len(reps))
	for r, x := range reps {
		flights[r] = x.flight
	}
	return out, des.MergeFlights(flights), nil
}

// mergeTimelines folds the cold-start ramps, the compiled chaos events
// and the scenario's explicit events into one time-ordered timeline. The
// sort is stable, so same-instant events keep their source order
// (cold-start, then chaos in walk order — restarts armed before any
// same-instant crash of a later occurrence — then explicit events in
// declaration order), which ScheduleBatch preserves at runtime.
func mergeTimelines(groups ...[]Event) []Event {
	merged := slices.Concat(groups...)
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
