// Package scenario is the deterministic scenario and fault-injection
// harness: it loads declarative scenario files (JSON) that describe a
// workload, a timeline of injected events — node crashes and restarts,
// per-node service-rate degradation, arrival bursts, strategy hot-swaps
// at the process manager — and a set of assertions over the outcome
// (miss-rate bounds, utilization windows, event counts).
//
// Every scenario runs single-threaded on the DES kernel with an always-on
// invariant checker (see Checker) and a full event tracer whose canonical
// hash backs the golden-trace regression suite: the same scenario file
// and seed must produce a byte-identical event trace on every run, on any
// GOMAXPROCS setting, forever — any silent change to the simulator's
// behaviour shows up as a hash mismatch.
//
// Scenario files live under testdata/scenarios/ at the repository root;
// cmd/sdascen runs them from the command line and (re-)blesses golden
// hashes.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// ErrBadScenario reports a malformed or inconsistent scenario file.
var ErrBadScenario = errors.New("scenario: invalid scenario")

// Event actions understood by the injection timeline.
const (
	ActionCrash   = "crash"    // take a node down (in-service work is lost)
	ActionRestart = "restart"  // bring a crashed node back up
	ActionSetRate = "set_rate" // change a node's service rate
	ActionBurst   = "burst"    // submit a batch of extra tasks at once
	ActionSwap    = "swap"     // hot-swap the SDA strategies
)

// Event is one injected fault or perturbation on the scenario timeline.
type Event struct {
	At     float64 `json:"at"`              // simulated instant (time units)
	Action string  `json:"action"`          // one of the Action constants
	Node   int     `json:"node,omitempty"`  // crash/restart/set_rate/burst target; -1 on burst = random node per task
	Rate   float64 `json:"rate,omitempty"`  // set_rate: new service rate (> 0)
	Count  int     `json:"count,omitempty"` // burst: number of tasks
	Kind   string  `json:"kind,omitempty"`  // burst: "local" or "global"
	SSP    string  `json:"ssp,omitempty"`   // swap: new serial strategy ("" keeps current)
	PSP    string  `json:"psp,omitempty"`   // swap: new parallel strategy ("" keeps current)
}

// Workload selects the stochastic workload of a scenario; zero-valued
// optional fields take the paper's Table 1 baseline values.
type Workload struct {
	K         int     `json:"k"`
	Load      float64 `json:"load"`
	FracLocal float64 `json:"frac_local"`

	SlackMin        float64 `json:"slack_min,omitempty"`        // default 1.25
	SlackMax        float64 `json:"slack_max,omitempty"`        // default 5.0
	GlobalSlackMin  float64 `json:"global_slack_min,omitempty"` // default: local range
	GlobalSlackMax  float64 `json:"global_slack_max,omitempty"`
	MeanLocalExec   float64 `json:"mean_local_exec,omitempty"`   // default 1.0
	MeanSubtaskExec float64 `json:"mean_subtask_exec,omitempty"` // default 1.0

	// Factory: parallel | uniform | serial (tree globals), or
	// layered | forkjoin | cond (precedence-DAG globals). Default parallel.
	Factory string `json:"factory,omitempty"`
	N       int    `json:"n,omitempty"`      // fanout / max layer width / cond branch width (default 4)
	Stages  int    `json:"stages,omitempty"` // serial/forkjoin/cond stages, layered layers (default 5)

	EdgeProb  float64 `json:"edge_prob,omitempty"`  // layered: extra-edge probability
	CrossProb float64 `json:"cross_prob,omitempty"` // forkjoin: stage-skip edge probability

	// Conditional-DAG knobs (factory "cond"). Branches defaults to 2;
	// BranchProbs (len == Branches, each in (0, 1], summing to 1) defaults
	// to uniform. Invalid probabilities are rejected at load time.
	Branches    int       `json:"branches,omitempty"`
	BranchProbs []float64 `json:"branch_probs,omitempty"`
}

// Assertions bound the scenario outcome. Nil pointers disable a bound.
type Assertions struct {
	MDLocalMax   *float64 `json:"md_local_max,omitempty"`
	MDLocalMin   *float64 `json:"md_local_min,omitempty"`
	MDGlobalMax  *float64 `json:"md_global_max,omitempty"`
	MDGlobalMin  *float64 `json:"md_global_min,omitempty"`
	MDSubtaskMax *float64 `json:"md_subtask_max,omitempty"`

	MissedWorkMax  *float64 `json:"missed_work_max,omitempty"`
	UtilizationMin *float64 `json:"utilization_min,omitempty"`
	UtilizationMax *float64 `json:"utilization_max,omitempty"`

	MinEvents  *uint64 `json:"min_events,omitempty"` // DES events fired
	MaxEvents  *uint64 `json:"max_events,omitempty"`
	MinLocals  *int64  `json:"min_locals,omitempty"` // counted local tasks
	MinGlobals *int64  `json:"min_globals,omitempty"`

	// AllowEarlyVDL disables the "virtual deadline not before release
	// with non-negative slack" invariant, needed for GF-delta (which
	// deliberately encodes priority as dl - Δ) and custom strategies
	// that move deadlines before the release instant.
	AllowEarlyVDL bool `json:"allow_early_vdl,omitempty"`
}

// Scenario is one declarative scenario file.
type Scenario struct {
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Seed        uint64     `json:"seed"`
	Workload    Workload   `json:"workload"`
	SSP         string     `json:"ssp,omitempty"`     // default UD
	PSP         string     `json:"psp,omitempty"`     // default UD
	Abort       string     `json:"abort,omitempty"`   // none | pm | local (default none)
	Policy      string     `json:"policy,omitempty"`  // edf | fifo | llf | sjf (default edf)
	Servers     int        `json:"servers,omitempty"` // default 1
	Duration    float64    `json:"duration"`
	Warmup      float64    `json:"warmup,omitempty"`
	Events      []Event    `json:"events,omitempty"`
	Assert      Assertions `json:"assert"`

	// Stress turns the scenario into a fleet-scale stress run: the fleet
	// template generator expands Stress.Fleet into a heterogeneous fleet
	// (Workload.K is derived from it) and the seeded chaos engine compiles
	// Stress.Chaos into the injection timeline. Stress scenarios skip the
	// golden trace hash and are judged by the always-on invariants, the
	// analytic oracle, and the Assert bands alone (see docs/STRESS.md).
	Stress *Stress `json:"stress,omitempty"`
}

// IsStress reports whether this is a fleet-scale stress scenario.
func (s *Scenario) IsStress() bool { return s.Stress != nil }

// Horizon returns the end of the simulated measurement window; timeline
// events must fire at or before it (later events would hit the
// post-horizon drain and perturb results invisibly).
func (s *Scenario) Horizon() float64 { return s.Warmup + s.Duration }

// withDefaults returns a copy with zero-valued optional fields filled in.
func (s Scenario) withDefaults() Scenario {
	w := &s.Workload
	if s.Stress != nil && w.K == 0 {
		w.K = s.Stress.Fleet.Nodes
	}
	// Zero means "unset" per bound: a one-sided range gets the Table 1
	// default for the missing side (an inverted result is rejected by
	// Spec.Validate, loudly).
	if w.SlackMin == 0 {
		w.SlackMin = 1.25
	}
	if w.SlackMax == 0 {
		w.SlackMax = 5.0
	}
	// The global pair defaults jointly to "use the local range"; a
	// one-sided global range borrows the missing side from the resolved
	// local range instead of silently becoming zero.
	if (w.GlobalSlackMin == 0) != (w.GlobalSlackMax == 0) {
		if w.GlobalSlackMin == 0 {
			w.GlobalSlackMin = w.SlackMin
		} else {
			w.GlobalSlackMax = w.SlackMax
		}
	}
	if w.MeanLocalExec == 0 {
		w.MeanLocalExec = 1.0
	}
	if w.MeanSubtaskExec == 0 {
		w.MeanSubtaskExec = 1.0
	}
	if w.Factory == "" {
		w.Factory = "parallel"
	}
	if w.N == 0 {
		w.N = 4
	}
	if w.Stages == 0 {
		w.Stages = 5
	}
	if w.Factory == "cond" && w.Branches == 0 {
		w.Branches = 2
	}
	if s.SSP == "" {
		s.SSP = "UD"
	}
	if s.PSP == "" {
		s.PSP = "UD"
	}
	if s.Abort == "" {
		s.Abort = "none"
	}
	if s.Policy == "" {
		s.Policy = "edf"
	}
	if s.Servers == 0 {
		s.Servers = 1
	}
	return s
}

// factories resolves the Workload's factory selection into a tree or a
// DAG factory (at most one non-nil). FracLocal == 1 needs no factory at
// all.
func (w Workload) factories() (workload.Factory, workload.DagFactory, error) {
	if w.FracLocal >= 1 {
		return nil, nil, nil
	}
	switch w.Factory {
	case "parallel":
		return workload.FixedParallel{N: w.N}, nil, nil
	case "uniform":
		return workload.UniformParallel{Min: 2, Max: w.N}, nil, nil
	case "serial":
		return workload.SerialParallel{Stages: w.Stages, Fanout: w.N}, nil, nil
	case "layered":
		return nil, workload.LayeredDag{Layers: w.Stages, MinWidth: 1, MaxWidth: w.N, EdgeProb: w.EdgeProb}, nil
	case "forkjoin":
		return nil, workload.ForkJoinDag{Stages: w.Stages, Fanout: w.N, CrossProb: w.CrossProb}, nil
	case "cond":
		return nil, workload.ConditionalDag{
			Stages:   w.Stages,
			Branches: w.Branches,
			Width:    w.N,
			Probs:    w.BranchProbs,
		}, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown factory %q", ErrBadScenario, w.Factory)
	}
}

// Config translates the scenario into a one-replication sim.Config
// (Observer and Recorder are attached by Run).
func (s *Scenario) Config() (sim.Config, error) {
	sc := s.withDefaults()
	factory, dagFactory, err := sc.Workload.factories()
	if err != nil {
		return sim.Config{}, err
	}
	ssp, err := sda.ParseSSP(sc.SSP)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	psp, err := sda.ParsePSP(sc.PSP)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	policy, ok := node.ParsePolicy(sc.Policy)
	if !ok {
		return sim.Config{}, fmt.Errorf("%w: unknown policy %q", ErrBadScenario, sc.Policy)
	}
	var abort sim.AbortMode
	switch sc.Abort {
	case "none":
		abort = sim.AbortNone
	case "pm":
		abort = sim.AbortProcessManager
	case "local":
		abort = sim.AbortLocalScheduler
	default:
		return sim.Config{}, fmt.Errorf("%w: unknown abort mode %q", ErrBadScenario, sc.Abort)
	}
	cfg := sim.Config{
		Spec: workload.Spec{
			K:               sc.Workload.K,
			Load:            sc.Workload.Load,
			FracLocal:       sc.Workload.FracLocal,
			MeanLocalExec:   sc.Workload.MeanLocalExec,
			MeanSubtaskExec: sc.Workload.MeanSubtaskExec,
			SlackMin:        sc.Workload.SlackMin,
			SlackMax:        sc.Workload.SlackMax,
			GlobalSlackMin:  sc.Workload.GlobalSlackMin,
			GlobalSlackMax:  sc.Workload.GlobalSlackMax,
			Factory:         factory,
			DagFactory:      dagFactory,
		},
		SSP:          ssp,
		PSP:          psp,
		Abort:        abort,
		Policy:       policy,
		Servers:      sc.Servers,
		Duration:     simtime.Duration(sc.Duration),
		Warmup:       simtime.Duration(sc.Warmup),
		Replications: 1,
		Seed:         sc.Seed,
	}
	return cfg, nil
}

// Validate checks the scenario for structural and semantic errors,
// including every timeline event, and bounds the work it expands into
// (see sim.MaxServers and the caps in bounds.go).
func (s *Scenario) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("%w: missing name", ErrBadScenario)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("%w: %s: duration %v must be positive", ErrBadScenario, s.Name, s.Duration)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("%w: %s: negative warmup", ErrBadScenario, s.Name)
	}
	// Stress validation runs before the workload config check so fleet
	// errors surface as such (a bad fleet size would otherwise be
	// reported as the derived workload's "K = 0").
	sc := s.withDefaults()
	var b workBudget
	if s.Stress != nil {
		if s.Servers != 0 {
			return fmt.Errorf("%w: %s: field \"servers\" is meaningless for a stress scenario (templates define per-node server counts)", ErrBadScenario, s.Name)
		}
		if err := s.Stress.validate(&sc, &b); err != nil {
			return err
		}
	}
	// Bounded before the config check, which caps servers too, so the
	// error names the scenario field.
	w := &sc.Workload
	if err := boundServers(s.Name, "k × servers", w.K, sc.Servers); err != nil {
		return err
	}
	cfg, err := s.Config()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadScenario, s.Name, err)
	}
	// The load fixes the work offered per node and time unit, and every
	// task carries at least the smaller mean execution time.
	tasks := w.Load * float64(w.K) * s.Horizon() / math.Min(w.MeanLocalExec, w.MeanSubtaskExec)
	if err := b.charge(s.Name, "duration (load × k × horizon ÷ mean exec)", 0, tasks); err != nil {
		return err
	}
	k := w.K
	for i, ev := range s.Events {
		where := fmt.Sprintf("%s: event %d (%s)", s.Name, i, ev.Action)
		if ev.At < 0 {
			return fmt.Errorf("%w: %s: negative time %v", ErrBadScenario, where, ev.At)
		}
		if ev.At > s.Horizon() {
			return fmt.Errorf("%w: %s: time %v past the horizon %v (warmup %v + duration %v); it would fire during the post-horizon drain",
				ErrBadScenario, where, ev.At, s.Horizon(), s.Warmup, s.Duration)
		}
		switch ev.Action {
		case ActionCrash, ActionRestart:
			if ev.Node < 0 || ev.Node >= k {
				return fmt.Errorf("%w: %s: node %d out of range [0, %d)", ErrBadScenario, where, ev.Node, k)
			}
			if err := rejectFields(where, ev, false, true, true, true, true); err != nil {
				return err
			}
		case ActionSetRate:
			if ev.Node < 0 || ev.Node >= k {
				return fmt.Errorf("%w: %s: node %d out of range [0, %d)", ErrBadScenario, where, ev.Node, k)
			}
			if ev.Rate <= 0 {
				return fmt.Errorf("%w: %s: rate %v must be positive", ErrBadScenario, where, ev.Rate)
			}
			if err := rejectFields(where, ev, false, false, true, true, true); err != nil {
				return err
			}
		case ActionBurst:
			if ev.Count < 1 {
				return fmt.Errorf("%w: %s: count %d must be >= 1", ErrBadScenario, where, ev.Count)
			}
			if err := b.burst(where, ev.Count, 1); err != nil {
				return err
			}
			if err := rejectFields(where, ev, false, true, false, false, true); err != nil {
				return err
			}
			switch ev.Kind {
			case "local":
				if ev.Node < -1 || ev.Node >= k {
					return fmt.Errorf("%w: %s: node %d out of range [-1, %d)", ErrBadScenario, where, ev.Node, k)
				}
			case "global":
				if cfg.Spec.Factory == nil && cfg.Spec.DagFactory == nil {
					return fmt.Errorf("%w: %s: global burst needs a factory (frac_local < 1)", ErrBadScenario, where)
				}
				if ev.Node != 0 {
					return fmt.Errorf("%w: %s: field \"node\" is meaningless for a global burst", ErrBadScenario, where)
				}
			default:
				return fmt.Errorf("%w: %s: unknown burst kind %q", ErrBadScenario, where, ev.Kind)
			}
		case ActionSwap:
			if ev.SSP == "" && ev.PSP == "" {
				return fmt.Errorf("%w: %s: swap changes nothing", ErrBadScenario, where)
			}
			if err := rejectFields(where, ev, true, true, true, true, false); err != nil {
				return err
			}
			if ev.SSP != "" {
				if _, err := sda.ParseSSP(ev.SSP); err != nil {
					return fmt.Errorf("%w: %s: %v", ErrBadScenario, where, err)
				}
			}
			if ev.PSP != "" {
				if _, err := sda.ParsePSP(ev.PSP); err != nil {
					return fmt.Errorf("%w: %s: %v", ErrBadScenario, where, err)
				}
			}
		default:
			return fmt.Errorf("%w: %s: unknown action", ErrBadScenario, where)
		}
	}
	return nil
}

// rejectFields rejects event fields that have no meaning for the event's
// action — a "rate" on a crash, a "count" on a swap — so scenario typos
// fail loudly at load time, matching the DisallowUnknownFields posture of
// Load. Each flag names a field that is meaningless for this action.
func rejectFields(where string, ev Event, node, rate, count, kind, swap bool) error {
	bad := ""
	switch {
	case node && ev.Node != 0:
		bad = "node"
	case rate && ev.Rate != 0:
		bad = "rate"
	case count && ev.Count != 0:
		bad = "count"
	case kind && ev.Kind != "":
		bad = "kind"
	case swap && (ev.SSP != "" || ev.PSP != ""):
		bad = "ssp/psp"
	}
	if bad != "" {
		return fmt.Errorf("%w: %s: field %q is meaningless for action %q", ErrBadScenario, where, bad, ev.Action)
	}
	return nil
}

// Load reads and validates one scenario file. Unknown JSON fields are
// rejected so typos in scenario files fail loudly instead of silently
// disabling an assertion.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadScenario, filepath.Base(path), err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadDir loads every *.json scenario in dir, sorted by name, and rejects
// duplicate scenario names (golden hashes are keyed by name).
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	seen := make(map[string]string, len(paths))
	out := make([]*Scenario, 0, len(paths))
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, fmt.Errorf("%w: name %q used by both %s and %s",
				ErrBadScenario, sc.Name, prev, filepath.Base(p))
		}
		seen[sc.Name] = filepath.Base(p)
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
