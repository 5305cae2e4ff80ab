package scenario

import (
	"fmt"
	"strings"

	"repro/internal/rng"
)

// fleetSeedSalt decorrelates the fleet expansion stream from the workload
// driver, burst generator and chaos engine substreams.
const fleetSeedSalt = 0x666c656574 // "fleet"

// Fleet is the templated fleet generator of a stress scenario: weighted
// node templates expand deterministically (from the scenario seed) into a
// heterogeneous fleet of Nodes nodes — per-node baseline service rates,
// per-node server counts, zone assignment, and cold-start ramps compiled
// into set_rate timeline events.
type Fleet struct {
	// Nodes is the fleet size. Workload.K is derived from it (a non-zero
	// Workload.K must match).
	Nodes int `json:"nodes"`
	// Zones partitions the fleet into failure domains (node i belongs to
	// zone i mod Zones); correlated zone failures in the chaos profile
	// target whole zones. Default 1.
	Zones int `json:"zones,omitempty"`
	// Templates are the weighted node templates; every node draws its
	// template with probability weight / sum(weights).
	Templates []NodeTemplate `json:"templates"`
}

// NodeTemplate describes one class of nodes in a templated fleet.
type NodeTemplate struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"` // relative share of the fleet (> 0)
	// Servers per node of this template (default 1).
	Servers int `json:"servers,omitempty"`
	// Baseline service rate range; each node draws uniformly from
	// [rate_min, rate_max]. Defaults: rate_min 1, rate_max = rate_min.
	RateMin float64 `json:"rate_min,omitempty"`
	RateMax float64 `json:"rate_max,omitempty"`
	// ColdStart, when set, starts nodes of this template at a degraded
	// rate that recovers to the baseline via scheduled set_rate steps.
	ColdStart *ColdStart `json:"cold_start,omitempty"`
}

// ColdStart models a node that comes up slow: at t=0 it serves at
// Fraction x baseline and recovers linearly to the baseline over Ramp
// time units in Steps scheduled set_rate increments.
type ColdStart struct {
	Fraction float64 `json:"fraction"`        // initial rate multiplier in (0, 1)
	Ramp     float64 `json:"ramp"`            // time to reach the baseline rate
	Steps    int     `json:"steps,omitempty"` // ramp increments (default 4)
}

// steps returns the ramp step count with the default applied.
func (c *ColdStart) steps() int {
	if c.Steps == 0 {
		return 4
	}
	return c.Steps
}

// rateRange returns the template's baseline rate range with defaults
// applied.
func (t *NodeTemplate) rateRange() (lo, hi float64) {
	lo = t.RateMin
	if lo == 0 {
		lo = 1
	}
	hi = t.RateMax
	if hi == 0 {
		hi = lo
	}
	return lo, hi
}

// servers returns the template's server count with the default applied.
func (t *NodeTemplate) servers() int {
	if t.Servers == 0 {
		return 1
	}
	return t.Servers
}

// validate checks the fleet schema and charges the cold-start ramps to b.
// horizon is the scenario horizon, which cold-start ramps must not
// outlast.
func (f *Fleet) validate(name string, horizon float64, b *workBudget) error {
	if f.Nodes < 1 {
		return fmt.Errorf("%w: %s: fleet needs at least 1 node, have %d", ErrBadScenario, name, f.Nodes)
	}
	if f.Zones < 0 || f.Zones > f.Nodes {
		return fmt.Errorf("%w: %s: zones %d out of range [1, %d]", ErrBadScenario, name, f.Zones, f.Nodes)
	}
	if len(f.Templates) == 0 {
		return fmt.Errorf("%w: %s: fleet needs at least one template", ErrBadScenario, name)
	}
	seen := make(map[string]bool, len(f.Templates))
	for i, t := range f.Templates {
		where := fmt.Sprintf("%s: template %d (%s)", name, i, t.Name)
		if strings.TrimSpace(t.Name) == "" {
			return fmt.Errorf("%w: %s: missing name", ErrBadScenario, where)
		}
		if seen[t.Name] {
			return fmt.Errorf("%w: %s: duplicate template name", ErrBadScenario, where)
		}
		seen[t.Name] = true
		if t.Weight <= 0 {
			return fmt.Errorf("%w: %s: weight %v must be positive", ErrBadScenario, where, t.Weight)
		}
		if t.Servers < 0 {
			return fmt.Errorf("%w: %s: servers %d must be >= 1", ErrBadScenario, where, t.Servers)
		}
		if err := boundServers(where, "nodes × servers", f.Nodes, t.servers()); err != nil {
			return err
		}
		lo, hi := t.rateRange()
		if lo <= 0 || hi < lo {
			return fmt.Errorf("%w: %s: rate range [%v, %v] must be positive and ordered", ErrBadScenario, where, lo, hi)
		}
		if c := t.ColdStart; c != nil {
			if c.Fraction <= 0 || c.Fraction >= 1 {
				return fmt.Errorf("%w: %s: cold-start fraction %v outside (0, 1)", ErrBadScenario, where, c.Fraction)
			}
			if c.Ramp <= 0 || c.Ramp > horizon {
				return fmt.Errorf("%w: %s: cold-start ramp %v outside (0, horizon %v]", ErrBadScenario, where, c.Ramp, horizon)
			}
			if c.Steps < 0 {
				return fmt.Errorf("%w: %s: cold-start steps %d must be >= 1", ErrBadScenario, where, c.Steps)
			}
			if err := b.charge(where, "cold_start.steps", float64(f.Nodes)*float64(c.steps()), 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// zones returns the zone count with the default applied.
func (f *Fleet) zones() int {
	if f.Zones == 0 {
		return 1
	}
	return f.Zones
}

// fleetPlan is one deterministic expansion of a Fleet: everything the
// simulator needs to wire the heterogeneous nodes, plus the compiled
// cold-start ramp events.
type fleetPlan struct {
	base     []float64 // baseline service rate per node
	initial  []float64 // t=0 rate per node (cold-start applied)
	servers  []int     // server count per node
	zone     []int     // zone per node (node i -> i mod zones)
	template []int     // template index per node
	counts   []int     // nodes per template
	byZone   [][]int   // node ids per zone, ascending
	events   []Event   // cold-start set_rate ramps, in (time, node) order
}

// totalServers sums the per-node server counts.
func (p *fleetPlan) totalServers() int {
	total := 0
	for _, s := range p.servers {
		total += s
	}
	return total
}

// expand deterministically expands the fleet from the scenario seed: node
// i draws its template (weighted) and baseline rate from a dedicated
// substream, so the expansion is independent of the workload and chaos
// draws. Call only on a validated fleet.
func (f *Fleet) expand(seed uint64) *fleetPlan {
	stream := rng.NewSplitter(seed + fleetSeedSalt).Stream()
	zones := f.zones()
	p := &fleetPlan{
		base:     make([]float64, f.Nodes),
		initial:  make([]float64, f.Nodes),
		servers:  make([]int, f.Nodes),
		zone:     make([]int, f.Nodes),
		template: make([]int, f.Nodes),
		counts:   make([]int, len(f.Templates)),
		byZone:   make([][]int, zones),
	}
	totalWeight := 0.0
	for _, t := range f.Templates {
		totalWeight += t.Weight
	}
	for i := 0; i < f.Nodes; i++ {
		// Weighted template pick: walk the cumulative weights.
		u := stream.Uniform(0, totalWeight)
		ti := len(f.Templates) - 1
		for j, t := range f.Templates {
			if u < t.Weight {
				ti = j
				break
			}
			u -= t.Weight
		}
		t := &f.Templates[ti]
		lo, hi := t.rateRange()
		base := stream.Uniform(lo, hi)
		p.template[i] = ti
		p.counts[ti]++
		p.base[i] = base
		p.initial[i] = base
		p.servers[i] = t.servers()
		z := i % zones
		p.zone[i] = z
		p.byZone[z] = append(p.byZone[z], i)
		if c := t.ColdStart; c != nil {
			p.initial[i] = base * c.Fraction
			steps := c.steps()
			for j := 1; j <= steps; j++ {
				frac := c.Fraction + (1-c.Fraction)*float64(j)/float64(steps)
				p.events = append(p.events, Event{
					At:     c.Ramp * float64(j) / float64(steps),
					Action: ActionSetRate,
					Node:   i,
					Rate:   base * frac,
				})
			}
		}
	}
	return p
}
