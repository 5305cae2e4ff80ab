package scenario

import (
	"fmt"

	"repro/internal/sim"
)

// Caps on the work a scenario may expand into. A few numbers in a small
// file multiply into the memory and time a run needs, so Validate
// rejects a scenario past any cap and names the field: a typo such as
// "mean_between": 1e-300 is an error, not an out-of-memory crash or a run
// that never ends. The largest shipped scenario, stress-fleet-10k, uses
// about 4% of the timeline cap and 2% of the task cap; fleet-wide servers
// are capped at sim.MaxServers, as sim.Config.Validate caps them.
const (
	maxTimelineEvents = 1 << 20 // expected compiled timeline events
	maxTasks          = 1e7     // expected tasks over the horizon, bursts included
	maxBurstCount     = 1 << 16 // tasks in one burst
)

// workBudget accumulates the expected timeline events and tasks of a
// scenario as Validate walks it. Counts are float64 so no product
// overflows; the negated comparisons also reject NaN.
type workBudget struct{ events, tasks float64 }

// charge adds the expected work of one field of where.
func (b *workBudget) charge(where, field string, events, tasks float64) error {
	b.events += events
	b.tasks += tasks
	if !(b.events <= maxTimelineEvents) {
		return fmt.Errorf("%w: %s: %s expands the timeline to about %.3g events, past the cap of %d",
			ErrBadScenario, where, field, b.events, maxTimelineEvents)
	}
	if !(b.tasks <= maxTasks) {
		return fmt.Errorf("%w: %s: %s brings the expected task count to about %.3g, past the cap of %.0g",
			ErrBadScenario, where, field, b.tasks, float64(maxTasks))
	}
	return nil
}

// burst charges occ expected bursts of count tasks each.
func (b *workBudget) burst(where string, count int, occ float64) error {
	if count > maxBurstCount {
		return fmt.Errorf("%w: %s: count %d is past the cap of %d tasks per burst", ErrBadScenario, where, count, maxBurstCount)
	}
	return b.charge(where, "count", 0, occ*float64(count))
}

// boundServers rejects a fleet of more than sim.MaxServers servers.
func boundServers(where, field string, nodes, servers int) error {
	if n := float64(nodes) * float64(servers); n > sim.MaxServers {
		return fmt.Errorf("%w: %s: %s builds up to %.3g servers, past the cap of %d", ErrBadScenario, where, field, n, sim.MaxServers)
	}
	return nil
}
