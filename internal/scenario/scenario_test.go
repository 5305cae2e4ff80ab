package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/task"
)

const scenarioDir = "../../testdata/scenarios"

func loadAll(t *testing.T) []*Scenario {
	t.Helper()
	scs, err := LoadDir(scenarioDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(scs) < 8 {
		t.Fatalf("want at least 8 scenarios, have %d", len(scs))
	}
	return scs
}

// TestGoldenScenarios is the golden-trace regression suite: every scenario
// file must pass its assertions and invariants and reproduce the exact
// event-trace hash recorded in golden.txt.
func TestGoldenScenarios(t *testing.T) {
	scs := loadAll(t)
	golden, err := ReadGolden(filepath.Join(scenarioDir, GoldenFile))
	if err != nil {
		t.Fatalf("ReadGolden: %v", err)
	}
	names := make(map[string]bool, len(scs))
	for _, sc := range scs {
		names[sc.Name] = true
		sc := sc
		if sc.IsStress() {
			// Stress scenarios have no golden hash by design; they are run
			// (scaled down) by TestShippedStressScenarios instead.
			if h, ok := golden[sc.Name]; ok {
				t.Errorf("stress scenario %q must not have a golden hash (found %s)", sc.Name, h)
			}
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			out, err := Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, f := range out.Failures {
				t.Errorf("failure: %s", f)
			}
			want, ok := golden[sc.Name]
			if !ok {
				t.Fatalf("no golden hash for %q (got %s); run: go run ./cmd/sdascen -bless", sc.Name, out.TraceHash)
			}
			if out.TraceHash != want {
				t.Errorf("trace hash %s differs from golden %s — the simulator's behaviour changed; if deliberate, re-bless with: go run ./cmd/sdascen -bless", out.TraceHash, want)
			}
		})
	}
	for name := range golden {
		if !names[name] {
			t.Errorf("golden.txt has stale entry %q with no scenario file", name)
		}
	}
}

// TestSuiteCoversMandatedFaults pins the suite composition: the scenario
// directory must keep at least one crash, one rate-degradation, one burst
// and one strategy-swap case.
func TestSuiteCoversMandatedFaults(t *testing.T) {
	scs := loadAll(t)
	seen := make(map[string]bool)
	for _, sc := range scs {
		for _, ev := range sc.Events {
			seen[ev.Action] = true
		}
	}
	for _, action := range []string{ActionCrash, ActionSetRate, ActionBurst, ActionSwap} {
		if !seen[action] {
			t.Errorf("no scenario exercises action %q", action)
		}
	}
}

// TestRunDeterministic runs fault-heavy scenarios twice in one process and
// demands identical outcomes — the abort and fault paths must not depend
// on map iteration order.
func TestRunDeterministic(t *testing.T) {
	for _, name := range []string{"crash-restart", "overload-pm-abort", "overload-local-abort", "cascade-mixed"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := Load(filepath.Join(scenarioDir, strings.ReplaceAll(name, "-", "_")+".json"))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			a, err := Run(sc)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(sc)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.TraceHash != b.TraceHash {
				t.Errorf("trace hash differs across runs: %s vs %s", a.TraceHash, b.TraceHash)
			}
			if !reflect.DeepEqual(a.Rep, b.Rep) {
				t.Errorf("replication results differ across runs:\n%+v\n%+v", a.Rep, b.Rep)
			}
		})
	}
}

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadRejectsUnknownFields: typos in scenario files must fail loudly,
// not silently disable an assertion.
func TestLoadRejectsUnknownFields(t *testing.T) {
	path := writeScenario(t, `{
		"name": "typo", "seed": 1, "duration": 10,
		"workload": {"k": 2, "load": 0.5, "frac_local": 1},
		"assert": {"md_locl_max": 0.5}
	}`)
	if _, err := Load(path); err == nil {
		t.Fatal("want error for unknown field md_locl_max, got nil")
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:     "v",
			Seed:     1,
			Workload: Workload{K: 4, Load: 0.5, FracLocal: 0.5},
			Duration: 100,
		}
	}
	cases := []struct {
		label string
		mut   func(*Scenario)
	}{
		{"missing name", func(s *Scenario) { s.Name = " " }},
		{"zero duration", func(s *Scenario) { s.Duration = 0 }},
		{"negative warmup", func(s *Scenario) { s.Warmup = -1 }},
		{"unknown ssp", func(s *Scenario) { s.SSP = "WAT" }},
		{"unknown psp", func(s *Scenario) { s.PSP = "WAT" }},
		{"unknown abort", func(s *Scenario) { s.Abort = "sometimes" }},
		{"unknown policy", func(s *Scenario) { s.Policy = "lifo" }},
		{"unknown factory", func(s *Scenario) { s.Workload.Factory = "ring" }},
		{"cond prob outside (0,1]", func(s *Scenario) {
			s.Workload.Factory = "cond"
			s.Workload.N = 1
			s.Workload.Stages = 3
			s.Workload.BranchProbs = []float64{1.5, -0.5}
		}},
		{"cond probs not summing to 1", func(s *Scenario) {
			s.Workload.Factory = "cond"
			s.Workload.N = 1
			s.Workload.Stages = 3
			s.Workload.BranchProbs = []float64{0.3, 0.3}
		}},
		{"cond probs wrong arity", func(s *Scenario) {
			s.Workload.Factory = "cond"
			s.Workload.N = 1
			s.Workload.Stages = 3
			s.Workload.BranchProbs = []float64{1}
		}},
		{"unknown action", func(s *Scenario) { s.Events = []Event{{At: 1, Action: "meteor"}} }},
		{"negative event time", func(s *Scenario) { s.Events = []Event{{At: -1, Action: ActionCrash}} }},
		{"event past horizon", func(s *Scenario) { s.Events = []Event{{At: 101, Action: ActionCrash}} }},
		{"crash with rate", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionCrash, Rate: 2}} }},
		{"crash with swap fields", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionCrash, SSP: "UD"}} }},
		{"restart with count", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionRestart, Count: 3}} }},
		{"set_rate with kind", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionSetRate, Rate: 2, Kind: "local"}} }},
		{"burst with rate", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionBurst, Count: 1, Kind: "local", Rate: 2}} }},
		{"global burst with node", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionBurst, Count: 1, Kind: "global", Node: 2}} }},
		{"swap with count", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionSwap, SSP: "DIV", Count: 3}} }},
		{"crash node out of range", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionCrash, Node: 4}} }},
		{"restart node negative", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionRestart, Node: -1}} }},
		{"zero rate", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionSetRate, Node: 0}} }},
		{"burst zero count", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionBurst, Kind: "local"}} }},
		{"burst bad kind", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionBurst, Count: 1, Kind: "cosmic"}} }},
		{"burst node below -1", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionBurst, Count: 1, Kind: "local", Node: -2}} }},
		{"swap without strategies", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionSwap}} }},
		{"swap bad ssp", func(s *Scenario) { s.Events = []Event{{At: 1, Action: ActionSwap, SSP: "WAT"}} }},
		{"global burst without factory", func(s *Scenario) {
			s.Workload.FracLocal = 1
			s.Events = []Event{{At: 1, Action: ActionBurst, Count: 1, Kind: "global"}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			s := base()
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted scenario with %s", tc.label)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario must be valid: %v", err)
	}
}

// TestPostHorizonEventRejected is the regression test for silently-armed
// post-horizon events: an event past warmup+duration would fire during
// the drain and perturb results invisibly, so Validate must reject it —
// and accept one landing exactly on the horizon.
func TestPostHorizonEventRejected(t *testing.T) {
	mk := func(at float64) *Scenario {
		return &Scenario{
			Name:     "h",
			Seed:     1,
			Workload: Workload{K: 2, Load: 0.5, FracLocal: 1},
			Duration: 50,
			Warmup:   10,
			Events:   []Event{{At: at, Action: ActionCrash, Node: 1}},
		}
	}
	if err := mk(60).Validate(); err != nil {
		t.Errorf("event exactly at the horizon must be accepted: %v", err)
	}
	err := mk(60.001).Validate()
	if err == nil {
		t.Fatal("event past the horizon accepted")
	}
	if !strings.Contains(err.Error(), "drain") {
		t.Errorf("error should explain the post-horizon drain, got: %v", err)
	}
}

// TestSlackDefaults pins the one-sided slack-range fix: each bound
// defaults independently (1.25 / 5.0), the global pair borrows missing
// sides from the resolved local range, and ranges that end up inverted
// are rejected loudly instead of silently becoming [x, 0).
func TestSlackDefaults(t *testing.T) {
	mk := func(mut func(*Workload)) *Scenario {
		s := &Scenario{
			Name:     "slack",
			Seed:     1,
			Workload: Workload{K: 4, Load: 0.5, FracLocal: 0.5},
			Duration: 50,
		}
		mut(&s.Workload)
		return s
	}
	cases := []struct {
		label                string
		mut                  func(*Workload)
		min, max, gmin, gmax float64
	}{
		{"both unset", func(w *Workload) {}, 1.25, 5.0, 0, 0},
		{"only min set", func(w *Workload) { w.SlackMin = 2 }, 2, 5.0, 0, 0},
		{"only max set", func(w *Workload) { w.SlackMax = 3 }, 1.25, 3, 0, 0},
		{"both set", func(w *Workload) { w.SlackMin = 2; w.SlackMax = 3 }, 2, 3, 0, 0},
		{"only global min set", func(w *Workload) { w.GlobalSlackMin = 2 }, 1.25, 5.0, 2, 5.0},
		{"only global max set", func(w *Workload) { w.GlobalSlackMax = 4 }, 1.25, 5.0, 1.25, 4},
		{"global pair set", func(w *Workload) { w.GlobalSlackMin = 2; w.GlobalSlackMax = 4 }, 1.25, 5.0, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			s := mk(tc.mut)
			if err := s.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			w := s.withDefaults().Workload
			got := [4]float64{w.SlackMin, w.SlackMax, w.GlobalSlackMin, w.GlobalSlackMax}
			want := [4]float64{tc.min, tc.max, tc.gmin, tc.gmax}
			if got != want {
				t.Errorf("resolved slack %v, want %v", got, want)
			}
		})
	}
	// One-sided ranges that conflict with the filled default must fail
	// loudly (Spec.Validate rejects inverted ranges).
	for _, tc := range []struct {
		label string
		mut   func(*Workload)
	}{
		{"min above default max", func(w *Workload) { w.SlackMin = 6 }},
		{"max below default min", func(w *Workload) { w.SlackMax = 1 }},
		{"global min above borrowed max", func(w *Workload) { w.GlobalSlackMin = 6 }},
		{"global max below borrowed min", func(w *Workload) { w.GlobalSlackMax = 1 }},
	} {
		t.Run(tc.label, func(t *testing.T) {
			if err := mk(tc.mut).Validate(); err == nil {
				t.Errorf("Validate accepted an inverted slack range (%s)", tc.label)
			}
		})
	}
}

func TestLoadDirRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	body := `{"name": "dup", "seed": 1, "duration": 10,
		"workload": {"k": 2, "load": 0.5, "frac_local": 1}, "assert": {}}`
	for _, f := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("want duplicate-name error, got nil")
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.txt")
	in := map[string]string{"b": "2222", "a": "1111"}
	if err := WriteGolden(path, in); err != nil {
		t.Fatalf("WriteGolden: %v", err)
	}
	out, err := ReadGolden(path)
	if err != nil {
		t.Fatalf("ReadGolden: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: %v vs %v", in, out)
	}
	empty, err := ReadGolden(filepath.Join(t.TempDir(), "missing.txt"))
	if err != nil || len(empty) != 0 {
		t.Errorf("missing file: want empty map, got %v, %v", empty, err)
	}
}

// TestCheckerFlagsBadRelease drives the release invariant directly: a
// virtual deadline past the budget with non-negative slack, or before the
// release instant, must be flagged.
func TestCheckerFlagsBadRelease(t *testing.T) {
	mk := func(vdl simtime.Time) (*task.Task, *task.Task) {
		leaf, err := task.NewSimple("s", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		leaf.Arrival = 10
		leaf.VirtualDeadline = vdl
		root, err := task.NewSimple("g", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		root.RealDeadline = 100
		return leaf, root
	}

	chk := NewChecker(false)
	leaf, root := mk(50)
	chk.RecordRelease(leaf, root, 100) // fine: 10 <= 50 <= 100
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("valid release flagged: %v", v)
	}

	leaf, root = mk(120) // past the budget with plenty of slack
	chk.RecordRelease(leaf, root, 100)
	if v := chk.Violations(); len(v) != 1 {
		t.Fatalf("want 1 violation for vdl after budget, got %v", v)
	}

	chk = NewChecker(false)
	leaf, root = mk(5) // before release with non-negative slack
	chk.RecordRelease(leaf, root, 100)
	if v := chk.Violations(); len(v) != 1 {
		t.Fatalf("want 1 violation for vdl before release, got %v", v)
	}

	chk = NewChecker(true) // GF-delta style early deadlines allowed
	leaf, root = mk(5)
	chk.RecordRelease(leaf, root, 100)
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("allowEarlyVDL run flagged: %v", v)
	}

	chk = NewChecker(false)
	leaf, root = mk(200) // negative slack: bounds do not bind
	leaf.Arrival = 99
	chk.RecordRelease(leaf, root, 99.5)
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("negative-slack release flagged: %v", v)
	}
}

// FuzzScenarioValidate feeds arbitrary scenario JSON — stress fleets,
// chaos profiles and event timelines included — through Load, which
// decodes and validates it. The result must be an ErrBadScenario or a
// scenario that validates again and translates into a simulator config;
// nothing may panic. The target never runs the scenario.
func FuzzScenarioValidate(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed scenarios in %s: %v", scenarioDir, err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(unboundedReplications(f, "1000000000")))
	path := filepath.Join(f.TempDir(), "fuzz.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := Load(path)
		if err != nil {
			if !errors.Is(err, ErrBadScenario) {
				t.Fatalf("error does not wrap ErrBadScenario: %v", err)
			}
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("loaded scenario fails revalidation: %v", err)
		}
		if _, err := sc.Config(); err != nil {
			t.Fatalf("loaded scenario has no config: %v", err)
		}
	})
}
