// Package sim wires the full simulated system together — nodes, process
// manager, workload driver, statistics — and runs replicated experiments.
//
// One Config describes everything the paper's Table 1 describes plus the
// strategy and abortion choices under study; Run executes R independent
// replications (different seeds, same parameters) and aggregates per-class
// miss rates with 95% confidence intervals, mirroring the paper's
// methodology of multiple long runs per data point.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// AbortMode selects the overload-management policy of Section 7.3.
type AbortMode int

// Abortion policies.
const (
	// AbortNone: tardy tasks run to completion (Table 1 baseline).
	AbortNone AbortMode = iota + 1
	// AbortProcessManager: a timer at each task's real deadline withdraws
	// unfinished work.
	AbortProcessManager
	// AbortLocalScheduler: nodes discard tasks whose virtual deadline has
	// passed; the process manager resubmits subtasks with recomputed
	// deadlines.
	AbortLocalScheduler
)

// ParseAbort returns the abortion policy a name selects: "none", "pm"
// (process manager) or "local" (local scheduler). ok is false for any
// other name.
func ParseAbort(name string) (AbortMode, bool) {
	switch name {
	case "none":
		return AbortNone, true
	case "pm":
		return AbortProcessManager, true
	case "local":
		return AbortLocalScheduler, true
	default:
		return 0, false
	}
}

// String returns the mode name.
func (m AbortMode) String() string {
	switch m {
	case AbortNone:
		return "none"
	case AbortProcessManager:
		return "process-manager"
	case AbortLocalScheduler:
		return "local-scheduler"
	default:
		return fmt.Sprintf("AbortMode(%d)", int(m))
	}
}

// Config describes one experiment cell.
type Config struct {
	Spec workload.Spec // workload parameters (Table 1 defaults via Default)

	SSP sda.SSP // serial strategy (default UD)
	PSP sda.PSP // parallel strategy (default UD)

	Abort      AbortMode   // overload management (default AbortNone)
	Policy     node.Policy // local queue policy (default EDF)
	Preemptive bool        // preemptive service (ablation; paper model is non-preemptive)

	// Servers is the number of identical servers per node (default 1, the
	// paper's model; larger values model pooled resources, M/M/c).
	Servers int

	// NodeServers, when non-empty, must have length Spec.K and gives node
	// i its own server count, overriding Servers. The scenario harness's
	// fleet template generator uses this to build heterogeneous fleets.
	NodeServers []int

	// NodeRates, when non-empty, must have length Spec.K and gives node i
	// its baseline service rate (work units per time unit; 1 = nominal).
	// Empty means every node starts at rate 1. Rates can still change
	// mid-run through node.SetRate (fault injection, cold-start ramps).
	NodeRates []float64

	// Observer, when non-nil, receives every node scheduling event (a
	// node.Log records them). Intended for small demonstration runs and
	// the scenario harness.
	Observer node.Observer

	// ReleaseHook, when non-nil, observes every deadline assignment.
	//
	// Deprecated: subscribe a procmgr.Listener through Recorder. The
	// field is kept only for the benchmark's tracer (bench/tracer.go).
	ReleaseHook func(t, root *task.Task, budget simtime.Time)

	// Recorder, when non-nil, receives every task outcome next to the
	// statistics collector; a procmgr.Listener also sees releases, causal
	// edges and DAGs. The scenario harness attaches its invariant checker
	// and the analytic oracle here. Like Observer, a Recorder forces
	// replications sequential: its callbacks are not synchronized.
	Recorder procmgr.Recorder

	// Obs configures the unified telemetry layer (see internal/obs). The
	// zero value is disabled: nothing is constructed and the hot path is
	// untouched. When enabled, each replication gets its own Telemetry
	// shard (read it via System.Telemetry on single-system runs) and
	// Run folds the shards into Result.Obs in replication-index order.
	// Telemetry never mutates model state and does not force the run
	// sequential: observed replications execute on all Workers, and the
	// merged output is bit-identical at every worker count.
	Obs obs.Options

	// Flight attaches the kernel flight recorder (des.Flight) to every
	// replication's engine: an allocation-free tap on the event calendar
	// that records its depth, event mix and record-pool behaviour. It
	// never perturbs the model and does not force the run sequential; Run
	// merges the per-replication recorders in replication-index order into
	// Result.Flight.
	Flight bool

	// OnReplication, when non-nil, runs once for every system sim wires:
	// the one of NewSystem, RunOne and ReplayTrace, and each replication
	// of Run. It runs after nodes, manager, telemetry and the replication
	// index (System.Replication, and under Run System.Fold) exist, and
	// before any event fires. It does not force the run sequential: with
	// Workers > 1 Run invokes it concurrently from several goroutines, so
	// the callback must be safe for concurrent use and must not mutate
	// model state. The live observability server attaches its hub here.
	OnReplication func(*System)

	// OnReplicationDone, when non-nil, runs once per replication right
	// after it finishes (telemetry is in its final state) and before the
	// shard is folded into Result.Obs. Like OnReplication it runs
	// concurrently with Workers > 1 and must not mutate model state. The
	// live observability server publishes each shard's final snapshot
	// here.
	OnReplicationDone func(*System)

	Duration     simtime.Duration // measured portion of each replication
	Warmup       simtime.Duration // tasks arriving before this are not counted
	Replications int              // independent replications (>= 1)
	Seed         uint64           // master seed; replication r uses a derived seed

	// Workers bounds the number of replications run concurrently (default
	// 1: sequential). Replication seeds are derived up front, so any
	// worker count yields bit-identical aggregates; workers are drawn from
	// the same bounded process-wide pool as cell-level parallelism (see
	// internal/par), so sweeps can enable both without multiplying
	// goroutines. Telemetry (Obs) runs on all workers — each replication
	// owns a private shard and the shards merge deterministically. Only
	// the unsynchronized callbacks (Observer, ReleaseHook, Recorder) force
	// the run sequential.
	Workers int
}

// Default returns a ready-to-run baseline configuration: Table 1 workload,
// UD-UD strategies, no abortion, EDF queues, and a simulation length that
// keeps unit tests fast. Experiments scale Duration/Replications up.
func Default() Config {
	return Config{
		Spec:         workload.Baseline(workload.FixedParallel{N: 4}),
		SSP:          sda.SerialUD{},
		PSP:          sda.UD{},
		Abort:        AbortNone,
		Policy:       node.EDF{},
		Duration:     20000,
		Warmup:       1000,
		Replications: 2,
		Seed:         1,
	}
}

// normalized returns a copy with zero-value fields defaulted.
func (c Config) normalized() Config {
	if c.SSP == nil {
		c.SSP = sda.SerialUD{}
	}
	if c.PSP == nil {
		c.PSP = sda.UD{}
	}
	if c.Abort == 0 {
		c.Abort = AbortNone
	}
	if c.Policy == nil {
		c.Policy = node.EDF{}
	}
	if c.Replications == 0 {
		c.Replications = 1
	}
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// MaxServers caps the fleet-wide server count (nodes × servers per node,
// or the sum of the per-node overrides) a configuration or a scenario
// may build. Every server costs memory up front, so a typo such as
// -k 3000000000 is an error, not an out-of-memory crash. The largest
// shipped scenario, stress-fleet-10k, uses about 2% of it.
const MaxServers = 1 << 20

// MaxTasks caps the tasks a replication is expected to generate:
// (K·λ_local + λ_global)·(Warmup + Duration). Every task costs simulated
// events, so a typo such as -load 1e300 is an error, not a run that never
// ends. The largest paper grid point, K=24 at load 0.9 over 1e6 time
// units, expects about 1.8e7 tasks.
const MaxTasks = 1e8

// MaxSamples caps Obs.MaxSamples. The telemetry sampler allocates
// MaxSamples slots per series (one per node plus three) before the run
// starts, so a typo such as -max-samples 100000000000 is an error, not an
// out-of-memory crash. It is 256 times the default of 4096.
const MaxSamples = 1 << 20

// ErrSampler marks a Validate or ReplayTrace failure of the enabled
// telemetry sampler: a non-finite Obs.SampleEvery, more than MaxTasks
// sampler ticks per replication (up to the last arrival of a replay), or
// Obs.MaxSamples past MaxSamples.
var ErrSampler = errors.New("sim: telemetry sampler")

// Validate checks the configuration. The comparisons are negated so that
// a NaN field fails them.
func (c Config) Validate() error { return c.validate(true) }

// ValidateReplay checks the configuration of a trace replay: Validate
// without the cap on the tasks the workload's rates are expected to
// generate, since the trace is the workload. ReplayTrace caps the
// trace's arrivals and the sampler ticks up to its last arrival instead.
func (c Config) ValidateReplay() error { return c.validate(false) }

// validate checks the configuration; with synthetic set it also caps the
// tasks the workload's rates are expected to generate, which a replay,
// whose trace is the workload, skips.
func (c Config) validate(synthetic bool) error {
	c = c.normalized()
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if !(c.Duration > 0 && c.Duration <= math.MaxFloat64) {
		return fmt.Errorf("sim: duration %v must be positive and finite", c.Duration)
	}
	if !(c.Warmup >= 0 && c.Warmup <= math.MaxFloat64) {
		return fmt.Errorf("sim: warmup %v must be non-negative and finite", c.Warmup)
	}
	rate := float64(float64(c.Spec.K)*c.Spec.LocalRate()) + c.Spec.GlobalRate()
	if tasks := rate * float64(c.Warmup+c.Duration); synthetic && !(tasks <= MaxTasks) {
		return fmt.Errorf("sim: about %.3g expected tasks per replication, past the cap of %.0g", tasks, float64(MaxTasks))
	}
	if c.Replications < 1 {
		return fmt.Errorf("sim: replications %d must be >= 1", c.Replications)
	}
	if c.Obs.Enabled {
		if err := checkSampler(c.Obs, simtime.Time(c.Warmup+c.Duration)); err != nil {
			return err
		}
	}
	switch c.Abort {
	case AbortNone, AbortProcessManager, AbortLocalScheduler:
	default:
		return fmt.Errorf("sim: invalid abort mode %d", int(c.Abort))
	}
	if c.Servers < 1 {
		return fmt.Errorf("sim: servers %d must be >= 1", c.Servers)
	}
	if c.Preemptive && c.Servers > 1 {
		return fmt.Errorf("sim: preemption requires single-server nodes")
	}
	// Summed in float64 so that no product or sum overflows.
	servers := float64(c.Spec.K) * float64(c.Servers)
	if len(c.NodeServers) > 0 {
		if len(c.NodeServers) != c.Spec.K {
			return fmt.Errorf("sim: NodeServers has %d entries for %d nodes", len(c.NodeServers), c.Spec.K)
		}
		servers = 0
		for i, s := range c.NodeServers {
			if s < 1 {
				return fmt.Errorf("sim: node %d server count %d must be >= 1", i, s)
			}
			if c.Preemptive && s > 1 {
				return fmt.Errorf("sim: preemption requires single-server nodes (node %d has %d)", i, s)
			}
			servers += float64(s)
		}
	}
	if servers > MaxServers {
		return fmt.Errorf("sim: %.3g servers fleet-wide, past the cap of %d", servers, MaxServers)
	}
	if len(c.NodeRates) > 0 {
		if len(c.NodeRates) != c.Spec.K {
			return fmt.Errorf("sim: NodeRates has %d entries for %d nodes", len(c.NodeRates), c.Spec.K)
		}
		for i, r := range c.NodeRates {
			if r <= 0 {
				return fmt.Errorf("sim: node %d baseline rate %v must be positive", i, r)
			}
		}
	}
	return nil
}

// checkSampler returns an error wrapping ErrSampler when the sampler of
// the enabled telemetry o has a non-finite cadence, would tick more than
// MaxTasks times up to horizon, or keeps more than MaxSamples samples. A
// cadence of zero or less is obs's default.
func checkSampler(o obs.Options, horizon simtime.Time) error {
	every := float64(o.SampleEvery)
	if every <= 0 {
		every = float64(obs.DefaultOptions().SampleEvery)
	}
	switch ticks := float64(horizon) / every; {
	case math.IsNaN(every) || math.IsInf(every, 0):
		return fmt.Errorf("%w: SampleEvery %v must be finite", ErrSampler, every)
	case !(ticks <= MaxTasks):
		return fmt.Errorf("%w: sampling every %v up to %v makes about %.3g ticks, past the cap of %.0g", ErrSampler, every, float64(horizon), ticks, float64(MaxTasks))
	case o.MaxSamples > MaxSamples:
		return fmt.Errorf("%w: MaxSamples %d is past the cap of %d", ErrSampler, o.MaxSamples, MaxSamples)
	}
	return nil
}

// TotalServers returns the fleet-wide server count: the sum of the
// per-node overrides when set, K x Servers otherwise.
func (c Config) TotalServers() int {
	c = c.normalized()
	if len(c.NodeServers) > 0 {
		total := 0
		for _, s := range c.NodeServers {
			total += s
		}
		return total
	}
	return c.Spec.K * c.Servers
}

// Name renders the strategy combination, e.g. "UD-DIV-1" (SSP-PSP).
func (c Config) Name() string {
	cc := c.normalized()
	return cc.SSP.Name() + "-" + cc.PSP.Name()
}

// RepResult is the outcome of a single replication.
type RepResult struct {
	MDLocal    float64         // fraction of local tasks missing their deadline
	MDSubtask  float64         // fraction of subtasks late w.r.t. their global deadline
	MDGlobal   float64         // fraction of global tasks missing their deadline
	MDGlobalBy map[int]float64 // MD_global per subtask-count class

	MissedWork  float64 // fraction of executed work belonging to tardy tasks
	Utilization float64 // busy time / capacity over the measured horizon

	// Response-time statistics over completed (non-aborted) tasks:
	// response = finish - arrival.
	RespLocalMean  float64
	RespGlobalMean float64
	RespLocalP95   float64
	RespGlobalP95  float64

	// MeanQueueLen is the time-averaged number of waiting items per node
	// over the measured horizon (excludes items in service).
	MeanQueueLen float64

	Locals, Globals, Subtasks int64 // counted (post-warmup) tasks
	Events                    uint64
}

// Result aggregates replications into interval estimates.
type Result struct {
	Config Config

	MDLocal    stats.Interval
	MDSubtask  stats.Interval
	MDGlobal   stats.Interval
	MDGlobalBy map[int]stats.Interval

	MissedWork  stats.Interval
	Utilization stats.Interval

	RespLocalMean  stats.Interval
	RespGlobalMean stats.Interval
	RespLocalP95   stats.Interval
	RespGlobalP95  stats.Interval
	MeanQueueLen   stats.Interval

	Locals, Globals int64 // totals across replications
	Reps            []RepResult

	// Obs holds the cross-replication telemetry merge when Config.Obs is
	// enabled (nil otherwise): every shard folded in replication-index
	// order, bit-identical at any Workers count.
	Obs *obs.Merged

	// Flight holds the merged kernel flight recorder when Config.Flight
	// is set (nil otherwise); the merge is order-independent, so it too
	// is bit-identical at any Workers count.
	Flight *des.Flight
}

// ErrNoTasks is returned when a replication observed no tasks at all —
// usually a sign of a zero load or a horizon shorter than the warmup.
var ErrNoTasks = errors.New("sim: no tasks observed")

// RepSeed returns the derived seed replication rep (0-based) uses under
// the given master seed — the same sequence Run derives up front, so
// tools can re-create any single replication of a multi-replication run.
func RepSeed(master uint64, rep int) uint64 {
	sp := rng.NewSplitter(master)
	var s uint64
	for i := 0; i <= rep; i++ {
		s = sp.Seed()
	}
	return s
}

// RepSeeds returns the seeds of replications 0..n-1 under the given
// master seed, derived in one pass.
func RepSeeds(master uint64, n int) []uint64 {
	sp := rng.NewSplitter(master)
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = sp.Seed()
	}
	return seeds
}

// Run executes the configured number of replications and aggregates them.
// Replications run on up to cfg.Workers goroutines; seeds are derived from
// the master seed before any replication starts (preserving the sequential
// seed sequence) and results are aggregated in replication order, so the
// aggregates are bit-identical for every worker count.
func Run(cfg Config) (Result, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	seeds := RepSeeds(cfg.Seed, cfg.Replications)
	workers := cfg.Workers
	if cfg.Observer != nil || cfg.ReleaseHook != nil || cfg.Recorder != nil {
		workers = 1 // callbacks are not synchronized across replications
	}
	var merged *obs.Merged
	if cfg.Obs.Enabled {
		merged = obs.NewMerged()
		// The replications recycle ring chunks through the fold's free
		// lists; none outlives the run.
		defer merged.DropFree()
	}
	var flights []*des.Flight
	if cfg.Flight {
		flights = make([]*des.Flight, cfg.Replications)
	}
	reps := make([]RepResult, cfg.Replications)
	err := par.Map(workers, cfg.Replications, func(r int) error {
		sys, err := newSystem(cfg, seeds[r], r, cfg.Replications, merged)
		if err != nil {
			return fmt.Errorf("replication %d: %w", r, err)
		}
		if err := sys.Start(); err != nil {
			return fmt.Errorf("replication %d: %w", r, err)
		}
		reps[r] = sys.Finish(sys.Horizon())
		if cfg.OnReplicationDone != nil {
			cfg.OnReplicationDone(sys)
		}
		if flights != nil {
			flights[r] = sys.Eng.Flight()
		}
		if sys.fold != nil {
			// Hand the shard over on this worker's goroutine (Telemetry
			// is single-goroutine); the merge is concurrency-safe and
			// folds shards in replication-index order regardless of
			// arrival order.
			if err := sys.tel.MergeInto(sys.fold); err != nil {
				return fmt.Errorf("replication %d: %w", r, err)
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{Config: cfg, Reps: reps, Obs: merged}
	if flights != nil {
		res.Flight = des.MergeFlights(flights)
	}
	var (
		mdLocal, mdSub, mdGlob, missedWork, util []float64
		respL, respG, respLP, respGP, qlen       []float64
		byClass                                  = map[int][]float64{}
	)
	for _, rep := range reps {
		res.Locals += rep.Locals
		res.Globals += rep.Globals
		mdLocal = append(mdLocal, rep.MDLocal)
		mdSub = append(mdSub, rep.MDSubtask)
		mdGlob = append(mdGlob, rep.MDGlobal)
		missedWork = append(missedWork, rep.MissedWork)
		util = append(util, rep.Utilization)
		respL = append(respL, rep.RespLocalMean)
		respG = append(respG, rep.RespGlobalMean)
		respLP = append(respLP, rep.RespLocalP95)
		respGP = append(respGP, rep.RespGlobalP95)
		qlen = append(qlen, rep.MeanQueueLen)
		for n, v := range rep.MDGlobalBy {
			byClass[n] = append(byClass[n], v)
		}
	}
	res.MDLocal = stats.MeanCI(mdLocal)
	res.MDSubtask = stats.MeanCI(mdSub)
	res.MDGlobal = stats.MeanCI(mdGlob)
	res.MissedWork = stats.MeanCI(missedWork)
	res.Utilization = stats.MeanCI(util)
	res.RespLocalMean = stats.MeanCI(respL)
	res.RespGlobalMean = stats.MeanCI(respG)
	res.RespLocalP95 = stats.MeanCI(respLP)
	res.RespGlobalP95 = stats.MeanCI(respGP)
	res.MeanQueueLen = stats.MeanCI(qlen)
	res.MDGlobalBy = make(map[int]stats.Interval, len(byClass))
	for n, vs := range byClass {
		res.MDGlobalBy[n] = stats.MeanCI(vs)
	}
	return res, nil
}

// System is one fully wired replication: engine, nodes, process manager,
// statistics collector, and (for live runs) the workload driver. RunOne
// wraps the common path; the scenario harness builds a System directly so
// it can schedule fault-injection events on Eng, swap strategies on Mgr,
// or crash and degrade individual Nodes mid-run.
type System struct {
	Eng    *des.Engine
	Nodes  []*node.Node
	Mgr    *procmgr.Manager
	Driver *workload.Driver // nil for replay systems

	// Replication and Replications locate this system in a
	// multi-replication run: the 0-based index and the total count.
	// Standalone systems (NewSystem callers outside Run) are 0 of 1.
	Replication  int
	Replications int

	cfg  Config
	rec  *collector
	tel  *obs.Telemetry // nil unless cfg.Obs.Enabled
	fold *obs.Merged    // Result.Obs of the Run this replication belongs to
}

// Telemetry returns the system's telemetry layer, or nil when Config.Obs
// is disabled.
func (s *System) Telemetry() *obs.Telemetry { return s.tel }

// Fold returns the merge Run hands this replication's telemetry to once
// it finishes — the run's Result.Obs — or nil when Config.Obs is
// disabled or the system was built outside Run.
func (s *System) Fold() *obs.Merged { return s.fold }

// build wires engine, nodes, manager and collector for a normalized,
// validated configuration (no workload attached yet).
func build(cfg Config) *System {
	eng := des.New()
	if cfg.Flight {
		eng.AttachFlight(des.NewFlight())
	}
	var tel *obs.Telemetry
	if cfg.Obs.Enabled {
		tel = obs.New(cfg.Obs)
	}
	observer := cfg.Observer
	if tel != nil {
		observer = node.CombineObservers(observer, tel)
	}
	nodeOpts := []node.Option{node.WithPolicy(cfg.Policy)}
	if cfg.Abort == AbortLocalScheduler {
		nodeOpts = append(nodeOpts, node.WithLocalAbort())
	}
	if cfg.Preemptive {
		nodeOpts = append(nodeOpts, node.WithPreemption())
	}
	if observer != nil {
		nodeOpts = append(nodeOpts, node.WithObserver(observer))
	}
	if cfg.Servers > 1 {
		nodeOpts = append(nodeOpts, node.WithServers(cfg.Servers))
	}
	nodes := make([]*node.Node, cfg.Spec.K)
	perNode := len(cfg.NodeServers) > 0 || len(cfg.NodeRates) > 0
	for i := range nodes {
		opts := nodeOpts
		if perNode {
			// Per-node overrides append to a copy; options apply in order,
			// so a NodeServers entry wins over the fleet-wide Servers.
			opts = make([]node.Option, len(nodeOpts), len(nodeOpts)+2)
			copy(opts, nodeOpts)
			if len(cfg.NodeServers) > 0 {
				opts = append(opts, node.WithServers(cfg.NodeServers[i]))
			}
			if len(cfg.NodeRates) > 0 {
				opts = append(opts, node.WithRate(cfg.NodeRates[i]))
			}
		}
		nodes[i] = node.New(i, eng, opts...)
	}

	rec := newCollector(simtime.Time(cfg.Warmup))
	// Recorders drops nil members; none of them perturbs another.
	var hook, telRec procmgr.Recorder
	if cfg.ReleaseHook != nil {
		hook = releaseHook{fn: cfg.ReleaseHook}
	}
	if tel != nil {
		telRec = tel
		tel.Bind(eng, nodes)
	}
	recorder := procmgr.Recorders(rec, hook, telRec, cfg.Recorder)
	mgrOpts := []procmgr.Option{procmgr.WithRecorder(recorder)}
	if cfg.Abort == AbortProcessManager {
		mgrOpts = append(mgrOpts, procmgr.WithPMAbort())
	}
	mgr := procmgr.New(eng, nodes, cfg.SSP, cfg.PSP, mgrOpts...)
	return &System{Eng: eng, Nodes: nodes, Mgr: mgr, cfg: cfg, rec: rec, tel: tel}
}

// wired places a system that has fired no event as replication r of
// reps, hands its telemetry shard to fold (Run's merge, nil elsewhere),
// and runs the OnReplication hook.
func (s *System) wired(r, reps int, fold *obs.Merged) {
	s.Replication, s.Replications = r, reps
	if fold != nil {
		s.tel.SetReplication(r)
		s.tel.DrawFrom(fold)
		s.fold = fold
	}
	if s.cfg.OnReplication != nil {
		s.cfg.OnReplication(s)
	}
}

// releaseHook adapts the deprecated Config.ReleaseHook to a
// procmgr.Listener; delete both together.
type releaseHook struct {
	procmgr.NopRecorder
	fn func(t, root *task.Task, budget simtime.Time)
}

func (h releaseHook) RecordRelease(t, root *task.Task, budget simtime.Time) { h.fn(t, root, budget) }

// NewSystem validates cfg and wires a single replication with a live
// workload driver seeded with seed, then runs the OnReplication hook.
// Call Start to schedule arrivals, then Finish to run to the horizon,
// drain, and collect the result.
func NewSystem(cfg Config, seed uint64) (*System, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSystem(cfg, seed, 0, 1, nil)
}

// newSystem wires a normalized, validated configuration with a live
// workload driver seeded with seed, as replication r of reps (see wired).
func newSystem(cfg Config, seed uint64, r, reps int, fold *obs.Merged) (*System, error) {
	sys := build(cfg)
	driver, err := workload.NewDriver(sys.Eng, sys.Mgr, cfg.Spec, seed)
	if err != nil {
		return nil, err
	}
	sys.Driver = driver
	sys.wired(r, reps, fold)
	return sys, nil
}

// Horizon returns the end of the measured window (warmup + duration).
func (s *System) Horizon() simtime.Time {
	return simtime.Time(s.cfg.Warmup + s.cfg.Duration)
}

// Start schedules the first arrival of every workload stream; arrivals
// stop at the horizon.
func (s *System) Start() error {
	if s.Driver == nil {
		return errors.New("sim: system has no workload driver")
	}
	return s.Driver.Start(s.Horizon())
}

// Finish runs the simulation to the given horizon, measures utilization
// and queue lengths there, drains the remaining events so every counted
// task resolves to a hit or a miss, and returns the replication result.
func (s *System) Finish(horizon simtime.Time) RepResult {
	if s.tel != nil {
		// Arm the time-series sampler: read-only ticks up to the horizon.
		// The first tick is strictly after now, so arming cannot fail.
		if err := s.tel.Start(horizon); err != nil {
			panic(fmt.Sprintf("sim: arm telemetry sampler: %v", err))
		}
	}
	s.Eng.RunUntil(horizon)
	measuredBusy := busyTime(s.Nodes)
	var qlenSum float64
	for _, n := range s.Nodes {
		qlenSum += n.MeanQueueLength()
	}
	s.Eng.Run()

	rep := s.rec.result()
	rep.Events = s.Eng.Fired()
	if s.tel != nil {
		// Sampler ticks are telemetry events, not model events: subtracting
		// them keeps the replication result bit-identical with obs on/off.
		rep.Events -= s.tel.Ticks()
	}
	// Utilization over the measured horizon (warmup included in busy time
	// keeps the estimator simple; the horizon dwarfs the warmup).
	if horizon > 0 {
		capacity := float64(horizon) * float64(s.cfg.TotalServers())
		rep.Utilization = float64(measuredBusy) / capacity
	}
	rep.MeanQueueLen = qlenSum / float64(s.cfg.Spec.K)
	return rep
}

// RunOne executes a single replication with an explicit seed.
func RunOne(cfg Config, seed uint64) (RepResult, error) {
	sys, err := NewSystem(cfg, seed)
	if err != nil {
		return RepResult{}, err
	}
	if err := sys.Start(); err != nil {
		return RepResult{}, err
	}
	rep := sys.Finish(sys.Horizon())
	if sys.cfg.Spec.Load > 0 && rep.Locals+rep.Globals == 0 {
		return rep, ErrNoTasks
	}
	return rep, nil
}

func busyTime(nodes []*node.Node) simtime.Duration {
	var total simtime.Duration
	for _, n := range nodes {
		total += n.BusyTime()
	}
	return total
}

// collector implements procmgr.Recorder with warmup filtering and
// per-class accounting. Construct with newCollector: histograms and the
// per-class map are preallocated so the record path never branches on
// lazy initialization.
type collector struct {
	warmup simtime.Time

	local   stats.Ratio
	subtask stats.Ratio
	global  stats.Ratio
	byClass map[int]*stats.Ratio

	workTotal  float64
	workMissed float64

	respLocal  *stats.Histogram
	respGlobal *stats.Histogram
}

// newCollector returns a collector with all sinks preallocated. The
// byClass map is sized for the fan-out range the workloads use (subtask
// counts are single digits).
func newCollector(warmup simtime.Time) *collector {
	return &collector{
		warmup:     warmup,
		byClass:    make(map[int]*stats.Ratio, 8),
		respLocal:  respHistogram(),
		respGlobal: respHistogram(),
	}
}

// respHistogram covers response times up to 200 mean service times with
// 0.25-unit resolution; overflow mass pins the p95 estimate at the upper
// bound, which only matters in saturated systems.
func respHistogram() *stats.Histogram {
	h, err := stats.NewHistogram(0, 200, 800)
	if err != nil {
		// Static bounds; cannot fail.
		panic(err)
	}
	return h
}

var _ procmgr.Recorder = (*collector)(nil)

// counted reports whether a task belongs to the measured population.
func (c *collector) counted(t *task.Task) bool {
	return !t.Arrival.Before(c.warmup)
}

// RecordLocal implements procmgr.Recorder.
func (c *collector) RecordLocal(t *task.Task, missed bool) {
	if !c.counted(t) {
		return
	}
	c.local.Observe(missed)
	c.workTotal += float64(t.Exec)
	if missed {
		c.workMissed += float64(t.Exec)
	}
	if t.Finished() {
		c.respLocal.Add(float64(t.Finish.Sub(t.Arrival)))
	}
}

// RecordSubtask implements procmgr.Recorder.
func (c *collector) RecordSubtask(t *task.Task, missed bool) {
	if !c.counted(t) {
		return
	}
	c.subtask.Observe(missed)
}

// RecordGlobal implements procmgr.Recorder.
func (c *collector) RecordGlobal(root *task.Task, _ *task.Dag, missed bool) {
	if !c.counted(root) {
		return
	}
	c.global.Observe(missed)
	n := root.CountSimple()
	r := c.byClass[n]
	if r == nil {
		r = &stats.Ratio{}
		c.byClass[n] = r
	}
	r.Observe(missed)
	work := float64(root.TotalWork())
	c.workTotal += work
	if missed {
		c.workMissed += work
	}
	if root.Finished() {
		c.respGlobal.Add(float64(root.Finish.Sub(root.Arrival)))
	}
}

func (c *collector) result() RepResult {
	rep := RepResult{
		MDLocal:    c.local.Value(),
		MDSubtask:  c.subtask.Value(),
		MDGlobal:   c.global.Value(),
		MDGlobalBy: make(map[int]float64, len(c.byClass)),
		Locals:     c.local.Trials,
		Globals:    c.global.Trials,
		Subtasks:   c.subtask.Trials,
	}
	for n, r := range c.byClass {
		rep.MDGlobalBy[n] = r.Value()
	}
	if c.workTotal > 0 {
		rep.MissedWork = c.workMissed / c.workTotal
	}
	// Empty histograms report zero mean and quantiles, matching the
	// pre-warmup / no-completions case.
	rep.RespLocalMean = c.respLocal.Mean()
	rep.RespLocalP95 = c.respLocal.Quantile(0.95)
	rep.RespGlobalMean = c.respGlobal.Mean()
	rep.RespGlobalP95 = c.respGlobal.Quantile(0.95)
	return rep
}

// ReplayTrace runs one replication driven by recorded arrivals instead of
// live generation. Strategy, abortion, policy and statistics behave as in
// RunOne; the workload's stochastic parameters are ignored (the trace IS
// the workload). The run is measured up to the later of the configured
// horizon (Warmup + Duration) and the last arrival, so replaying a trace
// that workload.Synthesize drew for the same seed and horizon yields the
// RepResult of the live run, Utilization, MeanQueueLen and Events
// included.
func ReplayTrace(cfg Config, arrivals []workload.Arrival) (RepResult, error) {
	cfg = cfg.normalized()
	if err := cfg.ValidateReplay(); err != nil {
		return RepResult{}, err
	}
	if len(arrivals) > MaxTasks {
		return RepResult{}, fmt.Errorf("sim: %d arrivals in the trace, past the cap of %.0g", len(arrivals), float64(MaxTasks))
	}
	horizon := simtime.Time(cfg.Warmup + cfg.Duration)
	for _, a := range arrivals {
		horizon = horizon.Max(a.At)
	}
	// The sampler ticks up to the stretched horizon, not the configured
	// one that validate checked.
	if cfg.Obs.Enabled {
		if err := checkSampler(cfg.Obs, horizon); err != nil {
			return RepResult{}, err
		}
	}
	sys := build(cfg)
	if err := workload.Replay(sys.Eng, sys.Mgr, arrivals); err != nil {
		return RepResult{}, err
	}
	sys.wired(0, 1, nil)
	return sys.Finish(horizon), nil
}
