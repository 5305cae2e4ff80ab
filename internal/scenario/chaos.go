package scenario

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// chaosSeedSalt decorrelates the chaos engine's substreams from the
// workload driver, burst generator and fleet expansion streams.
const chaosSeedSalt = 0x6368616f73 // "chaos"

// chaosPickTries bounds the rejection sampling when a wave looks for an
// eligible (up, non-degraded) target node; a fully-down fleet makes the
// occurrence a no-op instead of looping forever.
const chaosPickTries = 64

// Chaos is the seeded chaos profile of a stress scenario. Each wave/storm
// is an independent stochastic process: occurrence instants are drawn
// with exponential inter-fault times inside [start, end], targets are
// drawn per occurrence, and everything compiles into ordinary timeline
// events (crash / restart / set_rate / burst) armed via the same batch
// scheduler as hand-written scenario events. Compilation is
// deterministic from the scenario seed: each wave owns a dedicated
// substream, so adding a wave never perturbs another wave's draws.
type Chaos struct {
	CrashWaves    []CrashWave    `json:"crash_waves,omitempty"`
	ZoneFailures  []ZoneFailure  `json:"zone_failures,omitempty"`
	DegradeStorms []DegradeStorm `json:"degrade_storms,omitempty"`
	BurstStorms   []BurstStorm   `json:"burst_storms,omitempty"`
}

// chaosWindow is the shared [start, end) occurrence window with mean
// exponential inter-fault spacing, embedded by every wave kind.
type chaosWindow struct {
	Start       float64 `json:"start"`
	End         float64 `json:"end"`
	MeanBetween float64 `json:"mean_between"`
}

// occurrences draws the wave's occurrence instants: a Poisson process
// over [start, end), first arrival one inter-fault time after start.
func (w *chaosWindow) occurrences(stream *rng.Stream) []float64 {
	var at []float64
	t := w.Start
	for {
		t += stream.Exp(w.MeanBetween)
		if t >= w.End {
			return at
		}
		at = append(at, t)
	}
}

// validate checks the window and charges its expected occurrences, each
// compiling into per timeline events, to b. It returns the expected
// occurrence count.
func (w *chaosWindow) validate(where string, horizon float64, b *workBudget, per float64) (float64, error) {
	if w.Start < 0 || w.End > horizon || w.Start >= w.End {
		return 0, fmt.Errorf("%w: %s: window [%v, %v) must be ordered and inside [0, horizon %v]",
			ErrBadScenario, where, w.Start, w.End, horizon)
	}
	if w.MeanBetween <= 0 {
		return 0, fmt.Errorf("%w: %s: mean_between %v must be positive", ErrBadScenario, where, w.MeanBetween)
	}
	occ := (w.End - w.Start) / w.MeanBetween
	return occ, b.charge(where, "mean_between", per*occ, 0)
}

// CrashWave crashes random up nodes at exponential intervals; every crash
// schedules the matching restart Uniform(down_min, down_max) later
// (capped at the horizon, so the fleet always ends the run fully up).
type CrashWave struct {
	chaosWindow
	DownMin float64 `json:"down_min"`
	DownMax float64 `json:"down_max"`
}

// ZoneFailure is a correlated failure: at each occurrence one random zone
// (a template-derived failure domain, node i in zone i mod zones) loses
// every currently-up node at once, all restarting together after
// Uniform(down_min, down_max).
type ZoneFailure struct {
	chaosWindow
	DownMin float64 `json:"down_min"`
	DownMax float64 `json:"down_max"`
}

// DegradeStorm slows random up nodes: each occurrence picks a node, sets
// its rate to baseline x Uniform(factor_min, factor_max), and restores
// the baseline rate after Duration (capped at the horizon).
type DegradeStorm struct {
	chaosWindow
	FactorMin float64 `json:"factor_min"`
	FactorMax float64 `json:"factor_max"`
	Duration  float64 `json:"duration"`
}

// BurstStorm injects arrival bursts: each occurrence submits Count extra
// tasks of Kind ("local" tasks scatter over random nodes; "global" needs
// a global factory, i.e. frac_local < 1).
type BurstStorm struct {
	chaosWindow
	Count int    `json:"count"`
	Kind  string `json:"kind"`
}

// validate checks the profile and charges its expected timeline events
// and burst tasks to b. zoneSize is the largest zone's node count.
func (c *Chaos) validate(name string, horizon, fracLocal float64, b *workBudget, zoneSize int) error {
	for i := range c.CrashWaves {
		w := &c.CrashWaves[i]
		where := fmt.Sprintf("%s: crash wave %d", name, i)
		if _, err := w.chaosWindow.validate(where, horizon, b, 2); err != nil {
			return err
		}
		if w.DownMin <= 0 || w.DownMax < w.DownMin {
			return fmt.Errorf("%w: %s: down range [%v, %v] must be positive and ordered", ErrBadScenario, where, w.DownMin, w.DownMax)
		}
	}
	for i := range c.ZoneFailures {
		z := &c.ZoneFailures[i]
		where := fmt.Sprintf("%s: zone failure %d", name, i)
		if _, err := z.chaosWindow.validate(where, horizon, b, 2*float64(zoneSize)); err != nil {
			return err
		}
		if z.DownMin <= 0 || z.DownMax < z.DownMin {
			return fmt.Errorf("%w: %s: down range [%v, %v] must be positive and ordered", ErrBadScenario, where, z.DownMin, z.DownMax)
		}
	}
	for i := range c.DegradeStorms {
		d := &c.DegradeStorms[i]
		where := fmt.Sprintf("%s: degrade storm %d", name, i)
		if _, err := d.chaosWindow.validate(where, horizon, b, 2); err != nil {
			return err
		}
		if d.FactorMin <= 0 || d.FactorMax < d.FactorMin || d.FactorMax > 1 {
			return fmt.Errorf("%w: %s: factor range [%v, %v] must be inside (0, 1] and ordered", ErrBadScenario, where, d.FactorMin, d.FactorMax)
		}
		if d.Duration <= 0 {
			return fmt.Errorf("%w: %s: duration %v must be positive", ErrBadScenario, where, d.Duration)
		}
	}
	for i := range c.BurstStorms {
		bs := &c.BurstStorms[i]
		where := fmt.Sprintf("%s: burst storm %d", name, i)
		occ, err := bs.chaosWindow.validate(where, horizon, b, 1)
		if err != nil {
			return err
		}
		if bs.Count < 1 {
			return fmt.Errorf("%w: %s: count %d must be >= 1", ErrBadScenario, where, bs.Count)
		}
		if err := b.burst(where, bs.Count, occ); err != nil {
			return err
		}
		switch bs.Kind {
		case "local":
		case "global":
			if fracLocal >= 1 {
				return fmt.Errorf("%w: %s: global burst storm needs a factory (frac_local < 1)", ErrBadScenario, where)
			}
		default:
			return fmt.Errorf("%w: %s: unknown burst kind %q", ErrBadScenario, where, bs.Kind)
		}
	}
	return nil
}

// chaosOccurrence is one drawn fault instant awaiting target assignment
// in the merged time walk.
type chaosOccurrence struct {
	at   float64
	kind int // 0 crash wave, 1 zone failure, 2 degrade storm, 3 burst storm
	wave int // index within its kind's slice
	ord  int // global draw order, the deterministic tie-break
}

// chaosStats summarizes what a compiled chaos profile actually injected,
// for the stress outcome summary.
type chaosStats struct {
	Crashes  int // node crashes from crash waves
	ZoneHits int // zone-failure occurrences that downed >= 1 node
	Degrades int // degrade applications
	Bursts   int // burst events
	Dropped  int // occurrences skipped (no eligible target in the fleet)
}

// compile expands the chaos profile into concrete timeline events against
// the expanded fleet plan. All waves first draw their occurrence instants
// from per-wave substreams; the merged, time-ordered walk then assigns
// targets while tracking which nodes are down or degraded, so waves never
// prematurely restart each other's nodes and restores never stomp an
// ongoing outage. Restarts and rate restores past the horizon are capped
// to it: the fleet ends every run fully up at baseline, so the
// post-horizon drain proceeds at full capacity.
func (c *Chaos) compile(plan *fleetPlan, zones int, horizon float64, seed uint64) ([]Event, chaosStats) {
	split := rng.NewSplitter(seed + chaosSeedSalt)
	crashStreams := make([]*rng.Stream, len(c.CrashWaves))
	zoneStreams := make([]*rng.Stream, len(c.ZoneFailures))
	degradeStreams := make([]*rng.Stream, len(c.DegradeStorms))
	burstStreams := make([]*rng.Stream, len(c.BurstStorms))

	var occ []chaosOccurrence
	draw := func(kind int, n int, streams []*rng.Stream, w func(i int) *chaosWindow) {
		for i := 0; i < n; i++ {
			streams[i] = split.Stream()
			for _, at := range w(i).occurrences(streams[i]) {
				occ = append(occ, chaosOccurrence{at: at, kind: kind, wave: i, ord: len(occ)})
			}
		}
	}
	draw(0, len(c.CrashWaves), crashStreams, func(i int) *chaosWindow { return &c.CrashWaves[i].chaosWindow })
	draw(1, len(c.ZoneFailures), zoneStreams, func(i int) *chaosWindow { return &c.ZoneFailures[i].chaosWindow })
	draw(2, len(c.DegradeStorms), degradeStreams, func(i int) *chaosWindow { return &c.DegradeStorms[i].chaosWindow })
	draw(3, len(c.BurstStorms), burstStreams, func(i int) *chaosWindow { return &c.BurstStorms[i].chaosWindow })
	sort.SliceStable(occ, func(i, j int) bool {
		if occ[i].at != occ[j].at {
			return occ[i].at < occ[j].at
		}
		return occ[i].ord < occ[j].ord
	})

	n := len(plan.base)
	downUntil := make([]float64, n)     // node is down before this instant
	degradedUntil := make([]float64, n) // node runs degraded before this instant
	up := func(id int, t float64) bool { return t >= downUntil[id] }
	// pickNode rejection-samples an up, non-degraded node; ok=false when
	// the fleet offers no eligible target within the try budget.
	pickNode := func(stream *rng.Stream, t float64, wantFresh bool) (int, bool) {
		for try := 0; try < chaosPickTries; try++ {
			id := stream.IntN(n)
			if up(id, t) && (!wantFresh || t >= degradedUntil[id]) {
				return id, true
			}
		}
		return 0, false
	}
	cap := func(t float64) float64 {
		if t > horizon {
			return horizon
		}
		return t
	}

	var events []Event
	var stats chaosStats
	for _, o := range occ {
		switch o.kind {
		case 0: // crash wave: one node down, scheduled restart
			w := &c.CrashWaves[o.wave]
			stream := crashStreams[o.wave]
			down := stream.Uniform(w.DownMin, w.DownMax)
			id, ok := pickNode(stream, o.at, false)
			if !ok {
				stats.Dropped++
				continue
			}
			backAt := cap(o.at + down)
			downUntil[id] = backAt
			stats.Crashes++
			events = append(events,
				Event{At: o.at, Action: ActionCrash, Node: id},
				Event{At: backAt, Action: ActionRestart, Node: id})
		case 1: // zone failure: every up node of one random zone
			z := &c.ZoneFailures[o.wave]
			stream := zoneStreams[o.wave]
			down := stream.Uniform(z.DownMin, z.DownMax)
			zone := stream.IntN(zones)
			backAt := cap(o.at + down)
			hit := 0
			for _, id := range plan.byZone[zone] {
				if !up(id, o.at) {
					continue
				}
				downUntil[id] = backAt
				hit++
				stats.Crashes++
				events = append(events,
					Event{At: o.at, Action: ActionCrash, Node: id},
					Event{At: backAt, Action: ActionRestart, Node: id})
			}
			if hit > 0 {
				stats.ZoneHits++
			} else {
				stats.Dropped++
			}
		case 2: // degrade storm: slow one node, restore baseline later
			d := &c.DegradeStorms[o.wave]
			stream := degradeStreams[o.wave]
			factor := stream.Uniform(d.FactorMin, d.FactorMax)
			id, ok := pickNode(stream, o.at, true)
			if !ok {
				stats.Dropped++
				continue
			}
			restoreAt := cap(o.at + d.Duration)
			degradedUntil[id] = restoreAt
			stats.Degrades++
			events = append(events,
				Event{At: o.at, Action: ActionSetRate, Node: id, Rate: plan.base[id] * factor},
				Event{At: restoreAt, Action: ActionSetRate, Node: id, Rate: plan.base[id]})
		case 3: // burst storm: extra arrivals, scattered or global
			b := &c.BurstStorms[o.wave]
			stats.Bursts++
			ev := Event{At: o.at, Action: ActionBurst, Count: b.Count, Kind: b.Kind}
			if b.Kind == "local" {
				ev.Node = -1 // random node per task
			}
			events = append(events, ev)
		}
	}
	return events, stats
}
