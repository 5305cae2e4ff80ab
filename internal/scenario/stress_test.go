package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// smallStress builds an in-memory stress scenario sized for unit tests:
// a 240-node heterogeneous fleet (fast multi-server nodes above rate 1,
// cold-starting nodes, zones) under all four chaos wave kinds, run twice.
func smallStress() *Scenario {
	return &Scenario{
		Name:     "stress-unit",
		Seed:     42,
		Duration: 30,
		Warmup:   5,
		Workload: Workload{Load: 0.6, FracLocal: 0.7},
		Stress: &Stress{
			Replications: 2,
			Fleet: Fleet{
				Nodes: 240,
				Zones: 6,
				Templates: []NodeTemplate{
					{Name: "std", Weight: 6},
					{Name: "fast", Weight: 2, RateMin: 1.4, RateMax: 1.8, Servers: 2},
					{Name: "cold", Weight: 2, RateMin: 0.9, RateMax: 1.1,
						ColdStart: &ColdStart{Fraction: 0.4, Ramp: 10, Steps: 4}},
				},
			},
			Chaos: Chaos{
				CrashWaves: []CrashWave{
					{chaosWindow{Start: 6, End: 25, MeanBetween: 2}, 1, 3},
				},
				ZoneFailures: []ZoneFailure{
					{chaosWindow{Start: 10, End: 20, MeanBetween: 6}, 1, 2},
				},
				DegradeStorms: []DegradeStorm{
					{chaosWindow{Start: 6, End: 25, MeanBetween: 2}, 0.3, 0.8, 4},
				},
				BurstStorms: []BurstStorm{
					{chaosWindow{Start: 8, End: 22, MeanBetween: 4}, 40, "local"},
					{chaosWindow{Start: 8, End: 22, MeanBetween: 7}, 5, "global"},
				},
			},
		},
	}
}

// TestStressRunPasses: the tentpole end-to-end — templated fleet, seeded
// chaos, per-replication invariant checker and oracle — with zero
// violations.
func TestStressRunPasses(t *testing.T) {
	sc := smallStress()
	out, err := RunStress(sc, 1)
	if err != nil {
		t.Fatalf("RunStress: %v", err)
	}
	for _, f := range out.Failures {
		t.Errorf("failure: %s", f)
	}
	if out.TraceHash != "" {
		t.Errorf("stress run must not produce a trace hash, got %s", out.TraceHash)
	}
	if len(out.Reps) != 2 {
		t.Fatalf("want 2 replications, have %d", len(out.Reps))
	}
	st := out.Stress
	if st == nil {
		t.Fatal("no StressInfo on outcome")
	}
	if st.Nodes != 240 || st.Zones != 6 {
		t.Errorf("fleet info %d nodes / %d zones, want 240 / 6", st.Nodes, st.Zones)
	}
	total := 0
	for _, n := range st.Templates {
		total += n
	}
	if total != 240 {
		t.Errorf("template counts sum to %d, want 240", total)
	}
	if st.TotalServers <= 240 {
		t.Errorf("total servers %d should exceed the node count (fast template has 2)", st.TotalServers)
	}
	if st.Chaos.Crashes == 0 || st.Chaos.ZoneHits == 0 || st.Chaos.Degrades == 0 || st.Chaos.Bursts == 0 {
		t.Errorf("chaos profile left a wave idle: %+v", st.Chaos)
	}
	if st.Timeline == 0 {
		t.Error("no compiled timeline events")
	}
	if out.OracleChecks == 0 {
		t.Error("oracle performed no checks")
	}
	for r, rep := range out.Reps {
		if rep.Events == 0 || rep.Locals == 0 || rep.Globals == 0 {
			t.Errorf("rep %d observed nothing: %+v", r, rep)
		}
	}
}

// TestStressDeterministicAcrossWorkers: the acceptance criterion — the
// same seed yields byte-identical outcome summaries across repeated runs
// and at every replication worker count.
func TestStressDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		out, err := RunStress(smallStress(), workers)
		if err != nil {
			t.Fatalf("RunStress(workers=%d): %v", workers, err)
		}
		return out.Summary()
	}
	first := run(1)
	if again := run(1); again != first {
		t.Errorf("summary differs across repeated runs:\n%s\nvs\n%s", first, again)
	}
	if par := run(4); par != first {
		t.Errorf("summary differs at Workers=4:\n%s\nvs\n%s", first, par)
	}
}

// TestRunDispatchesStress: the generic Run entry point must route stress
// scenarios through the stress runner.
func TestRunDispatchesStress(t *testing.T) {
	out, err := Run(smallStress())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Stress == nil {
		t.Fatal("Run on a stress scenario did not use the stress runner")
	}
}

// TestRunObservedRejectsStress: the telemetry/trace path has no stress
// support and must say so instead of silently running something else.
func TestRunObservedRejectsStress(t *testing.T) {
	if _, _, err := RunObserved(smallStress(), obs.Options{}, nil); err == nil {
		t.Fatal("RunObserved accepted a stress scenario")
	}
	hooked := false
	if _, _, err := RunObserved(smallStress(), obs.Options{}, func(*sim.System) { hooked = true }); err == nil || hooked {
		t.Fatalf("RunObserved with a hook on a stress scenario: err %v, hook ran %v", err, hooked)
	}
}

// TestApplyStressScale: scaling shrinks the fleet and burst volume and
// switches band assertions off (they were calibrated for full size), but
// keeps invariants and the oracle armed.
func TestApplyStressScale(t *testing.T) {
	sc := smallStress()
	huge := uint64(1 << 60)
	sc.Assert.MinEvents = &huge // impossible band: must be skipped when scaled
	sc.ApplyStressScale(8)
	if sc.Stress.Fleet.Nodes != 30 {
		t.Errorf("scaled fleet has %d nodes, want 30", sc.Stress.Fleet.Nodes)
	}
	if sc.Stress.scaledFrom != 240 {
		t.Errorf("scaledFrom %d, want 240", sc.Stress.scaledFrom)
	}
	if got := sc.Stress.Chaos.BurstStorms[0].Count; got != 5 {
		t.Errorf("scaled burst count %d, want 5", got)
	}
	out, err := RunStress(sc, 1)
	if err != nil {
		t.Fatalf("RunStress: %v", err)
	}
	for _, f := range out.Failures {
		t.Errorf("scaled run failure (bands should be skipped): %s", f)
	}
	if out.Stress.ScaledFrom != 240 {
		t.Errorf("outcome ScaledFrom %d, want 240", out.Stress.ScaledFrom)
	}
	if !strings.Contains(out.Summary(), "scaled from 240") {
		t.Error("summary does not mention the scale-down")
	}
}

// TestHeterogeneousRatesPassOracle is the regression test for the
// hardcoded oracle max-rate: a fleet whose every node runs at rate 1.5
// finishes tasks faster than rate-1 execution time, which the old
// maxRate := 1.0 flagged as violations.
func TestHeterogeneousRatesPassOracle(t *testing.T) {
	sc := &Scenario{
		Name:     "stress-fast-fleet",
		Seed:     7,
		Duration: 40,
		Workload: Workload{Load: 0.5, FracLocal: 1},
		Stress: &Stress{
			Fleet: Fleet{
				Nodes:     8,
				Templates: []NodeTemplate{{Name: "fast", Weight: 1, RateMin: 1.5, RateMax: 1.5}},
			},
		},
	}
	out, err := RunStress(sc, 1)
	if err != nil {
		t.Fatalf("RunStress: %v", err)
	}
	for _, f := range out.Failures {
		t.Errorf("rate-1.5 fleet must pass the oracle, got: %s", f)
	}
	if out.OracleChecks == 0 {
		t.Fatal("oracle performed no checks")
	}
}

// TestOracleMaxRateDerivation pins the shared bound derivation: the max
// over baseline node rates and every timeline set_rate, floored at 1.
func TestOracleMaxRateDerivation(t *testing.T) {
	cases := []struct {
		label  string
		base   []float64
		events []Event
		want   float64
	}{
		{"empty", nil, nil, 1.0},
		{"slow fleet floors at 1", []float64{0.5, 0.25}, nil, 1.0},
		{"fast baseline wins", []float64{0.5, 1.5}, nil, 1.5},
		{"set_rate wins", []float64{1.2}, []Event{{Action: ActionSetRate, Rate: 2.0}}, 2.0},
		{"non-set_rate rates ignored", nil, []Event{{Action: ActionCrash, Rate: 9.0}}, 1.0},
	}
	for _, tc := range cases {
		if got := oracleMaxRate(tc.base, tc.events); got != tc.want {
			t.Errorf("%s: oracleMaxRate = %v, want %v", tc.label, got, tc.want)
		}
	}
}

// TestFleetExpansionDeterministic: same seed, same plan — node for node.
func TestFleetExpansionDeterministic(t *testing.T) {
	f := &smallStress().Stress.Fleet
	a, b := f.expand(42), f.expand(42)
	for i := range a.base {
		if a.base[i] != b.base[i] || a.initial[i] != b.initial[i] || a.servers[i] != b.servers[i] || a.template[i] != b.template[i] {
			t.Fatalf("expansion differs at node %d", i)
		}
	}
	c := f.expand(43)
	same := true
	for i := range a.base {
		if a.base[i] != c.base[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical expansion")
	}
}

// TestColdStartRampReachesBaseline: the last ramp step must restore the
// exact baseline rate, or the oracle's max-rate bound would drift.
func TestColdStartRampReachesBaseline(t *testing.T) {
	f := &Fleet{
		Nodes: 4,
		Templates: []NodeTemplate{{
			Name: "cold", Weight: 1, RateMin: 2, RateMax: 2,
			ColdStart: &ColdStart{Fraction: 0.5, Ramp: 8, Steps: 4},
		}},
	}
	plan := f.expand(1)
	if len(plan.events) != 4*4 {
		t.Fatalf("want 16 ramp events, have %d", len(plan.events))
	}
	last := make(map[int]Event)
	for _, ev := range plan.events {
		if ev.Action != ActionSetRate {
			t.Fatalf("unexpected ramp action %q", ev.Action)
		}
		if prev, ok := last[ev.Node]; ok && ev.Rate <= prev.Rate {
			t.Errorf("node %d ramp not increasing: %v then %v", ev.Node, prev.Rate, ev.Rate)
		}
		last[ev.Node] = ev
	}
	for id, ev := range last {
		if ev.Rate != plan.base[id] {
			t.Errorf("node %d ramp ends at %v, baseline %v", id, ev.Rate, plan.base[id])
		}
		if ev.At != 8 {
			t.Errorf("node %d ramp ends at t=%v, want 8", id, ev.At)
		}
		if plan.initial[id] != plan.base[id]*0.5 {
			t.Errorf("node %d initial rate %v, want half of %v", id, plan.initial[id], plan.base[id])
		}
	}
}

// TestStressValidation: the stress schema must reject inconsistent
// fleets and chaos profiles loudly.
func TestStressValidation(t *testing.T) {
	cases := []struct {
		label string
		mut   func(*Scenario)
	}{
		{"scenario servers field", func(s *Scenario) { s.Servers = 2 }},
		{"workload k contradicts fleet", func(s *Scenario) { s.Workload.K = 99 }},
		{"zero nodes", func(s *Scenario) { s.Stress.Fleet.Nodes = 0 }},
		{"more zones than nodes", func(s *Scenario) { s.Stress.Fleet.Zones = 1000 }},
		{"no templates", func(s *Scenario) { s.Stress.Fleet.Templates = nil }},
		{"unnamed template", func(s *Scenario) { s.Stress.Fleet.Templates[0].Name = " " }},
		{"duplicate template name", func(s *Scenario) { s.Stress.Fleet.Templates[1].Name = "std" }},
		{"non-positive weight", func(s *Scenario) { s.Stress.Fleet.Templates[0].Weight = 0 }},
		{"inverted rate range", func(s *Scenario) {
			s.Stress.Fleet.Templates[0].RateMin = 2
			s.Stress.Fleet.Templates[0].RateMax = 1
		}},
		{"cold-start fraction 1", func(s *Scenario) { s.Stress.Fleet.Templates[2].ColdStart.Fraction = 1 }},
		{"cold-start ramp past horizon", func(s *Scenario) { s.Stress.Fleet.Templates[2].ColdStart.Ramp = 100 }},
		{"negative replications", func(s *Scenario) { s.Stress.Replications = -1 }},
		{"chaos window past horizon", func(s *Scenario) { s.Stress.Chaos.CrashWaves[0].End = 100 }},
		{"chaos window inverted", func(s *Scenario) { s.Stress.Chaos.CrashWaves[0].Start = 30 }},
		{"zero mean_between", func(s *Scenario) { s.Stress.Chaos.CrashWaves[0].MeanBetween = 0 }},
		{"zero down time", func(s *Scenario) { s.Stress.Chaos.CrashWaves[0].DownMin = 0 }},
		{"inverted zone down range", func(s *Scenario) {
			s.Stress.Chaos.ZoneFailures[0].DownMin = 3
			s.Stress.Chaos.ZoneFailures[0].DownMax = 1
		}},
		{"degrade factor above 1", func(s *Scenario) { s.Stress.Chaos.DegradeStorms[0].FactorMax = 1.5 }},
		{"degrade zero duration", func(s *Scenario) { s.Stress.Chaos.DegradeStorms[0].Duration = 0 }},
		{"burst storm zero count", func(s *Scenario) { s.Stress.Chaos.BurstStorms[0].Count = 0 }},
		{"burst storm bad kind", func(s *Scenario) { s.Stress.Chaos.BurstStorms[0].Kind = "cosmic" }},
		{"global burst storm without factory", func(s *Scenario) { s.Workload.FracLocal = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			s := smallStress()
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted stress scenario with %s", tc.label)
			}
		})
	}
	if err := smallStress().Validate(); err != nil {
		t.Fatalf("base stress scenario must be valid: %v", err)
	}
}

// TestValidateBoundsExpandedWork: a scenario whose numbers expand into
// an unbounded fleet, timeline or task stream is rejected at once, with
// an error naming the field. The first four cases are the probes that
// used to exhaust memory or hang sdascen on a mutated stress-zone-5k.
func TestValidateBoundsExpandedWork(t *testing.T) {
	zone := func(t *testing.T) *Scenario {
		sc, err := Load(filepath.Join(scenarioDir, "stress_zone_5k.json"))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	small := func(*testing.T) *Scenario { return smallStress() }
	plain := func(t *testing.T) *Scenario {
		sc, err := Load(filepath.Join(scenarioDir, "burst_local.json"))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	cases := []struct {
		field string
		base  func(*testing.T) *Scenario
		mut   func(*Scenario)
	}{
		{"nodes × servers", zone, func(s *Scenario) { s.Stress.Fleet.Nodes = 2000000000 }},
		{"crash wave 0: mean_between", zone, func(s *Scenario) { s.Stress.Chaos.CrashWaves[0].MeanBetween = 1e-300 }},
		{"stress-zone-5k: duration", zone, func(s *Scenario) { s.Duration = 1e300 }},
		{"burst storm 0: count", zone, func(s *Scenario) { s.Stress.Chaos.BurstStorms[0].Count = 2000000000 }},
		{"zone failure 0: mean_between", zone, func(s *Scenario) { s.Stress.Chaos.ZoneFailures[0].MeanBetween = 1e-3 }},
		{"template 1 (big): nodes × servers", zone, func(s *Scenario) { s.Stress.Fleet.Templates[1].Servers = 2000000000 }},
		{"degrade storm 0: mean_between", small, func(s *Scenario) { s.Stress.Chaos.DegradeStorms[0].MeanBetween = 1e-300 }},
		{"burst storm 1: mean_between", small, func(s *Scenario) { s.Stress.Chaos.BurstStorms[1].MeanBetween = 1e-300 }},
		{"template 2 (cold): cold_start.steps", small, func(s *Scenario) { s.Stress.Fleet.Templates[2].ColdStart.Steps = 2000000000 }},
		{"stress-unit: duration", small, func(s *Scenario) { s.Workload.MeanLocalExec = 1e-300 }},
		{"burst-local: k × servers", plain, func(s *Scenario) { s.Workload.K = 2000000000 }},
		{"burst-local: k × servers", plain, func(s *Scenario) { s.Servers = 2000000000 }},
		{"burst-local: duration", plain, func(s *Scenario) { s.Workload.Load = 1e300 }},
		{"event 0 (burst): count", plain, func(s *Scenario) { s.Events[0].Count = 2000000000 }},
	}
	for _, tc := range cases {
		sc := tc.base(t)
		tc.mut(sc)
		start := time.Now()
		err := sc.Validate()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: Validate took %v", tc.field, elapsed)
		}
		if !errors.Is(err, ErrBadScenario) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want an ErrBadScenario naming the field", tc.field, err)
		}
	}
}

// TestLoadRejectsUnboundedReplications: a stress file asking for a
// billion replications fails Load before anything is allocated for them.
// Each replication repeats the whole task stream, so a count under the
// cap still fails once the tasks it multiplies pass the task cap.
func TestLoadRejectsUnboundedReplications(t *testing.T) {
	for _, tc := range []struct{ reps, want string }{
		{"1000000000", "replications 1000000000 outside [0, 65536]"},
		{"100", "replications brings the expected task count"},
	} {
		path := writeScenario(t, unboundedReplications(t, tc.reps))
		start := time.Now()
		_, err := Load(path)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("replications %s: Load took %v", tc.reps, elapsed)
		}
		if !errors.Is(err, ErrBadScenario) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("replications %s: Load = %v, want an ErrBadScenario containing %q", tc.reps, err, tc.want)
		}
	}
}

// unboundedReplications returns stress-fleet-10k's JSON with its
// replication count replaced by reps.
func unboundedReplications(t testing.TB, reps string) string {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "stress_fleet_10k.json"))
	if err != nil {
		t.Fatal(err)
	}
	const field = `"replications": 2,`
	if !bytes.Contains(data, []byte(field)) {
		t.Fatalf("stress_fleet_10k.json has no %s", field)
	}
	return strings.Replace(string(data), field, `"replications": `+reps+`,`, 1)
}

// TestShippedStressScenarios runs every stress scenario file in the suite
// at a reduced fleet scale (full size runs in CI via cmd/sdascen) and
// demands zero invariant or oracle violations.
func TestShippedStressScenarios(t *testing.T) {
	found := 0
	for _, sc := range loadAll(t) {
		if !sc.IsStress() {
			continue
		}
		found++
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			sc.ApplyStressScale(20)
			out, err := RunStress(sc, 4)
			if err != nil {
				t.Fatalf("RunStress: %v", err)
			}
			for _, f := range out.Failures {
				t.Errorf("failure: %s", f)
			}
		})
	}
	if found == 0 {
		t.Fatal("no stress scenarios shipped in testdata/scenarios")
	}
}
