// Package analysis provides analytic response-time and miss-ratio bounds
// for the DAG task model, used as an independent correctness oracle over
// the discrete-event simulator.
//
// The bounds are classical sample-path arguments specialised from Dinh et
// al., "Analysis of Global Fixed-Priority Scheduling for Generalized
// Sporadic DAG Tasks" (arXiv:1905.05119), and their probabilistic
// conditional extension follows Ueter et al., "Response-Time Analysis and
// Optimization for Probabilistic Conditional Parallel DAG Tasks"
// (arXiv:2101.11053). For a DAG G with volume vol(G) (total work) and
// critical path len(G) (longest chain), executed on servers of service
// rate at most rmax and at least rmin:
//
//   - Lower bound, any schedule: R >= len(G)/rmax. The vertices of the
//     longest chain execute strictly one after another; queueing,
//     contention, aborts, crashes and re-execution only add to this.
//     This holds on EVERY sample path, so it is enforced suite-wide by
//     the Oracle recorder.
//
//   - Isolated upper bound: R <= vol(G)/rmin for a task alone in an
//     otherwise idle, work-conserving system — some vertex of the task is
//     always in service, and the total demand is vol(G). This is the
//     bound the property tests cross-validate by simulating single tasks
//     in an empty system.
//
// For a probabilistic conditional DAG with realizations G_1..G_n of
// probabilities p_1..p_n, the per-realization bounds combine into exact
// statements about the response-time distribution: E[R] >= sum p_i *
// len(G_i)/rmax, and the miss ratio of a relative deadline D is at least
// sum of p_i over the realizations with len(G_i)/rmax > D (those miss
// under every schedule).
package analysis

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/task"
)

// Metrics are the schedulability-relevant structural measures of one DAG.
type Metrics struct {
	Volume   simtime.Duration // total work: sum of vertex execution times
	Critical simtime.Duration // longest execution-time chain
	Vertices int
	Depth    int // vertices on the longest precedence chain
	Width    int // size of the largest antichain level
}

// DagMetrics extracts the metrics of a precedence DAG.
func DagMetrics(d *task.Dag) Metrics {
	return Metrics{
		Volume:   d.TotalWork(),
		Critical: d.CriticalPath(),
		Vertices: d.Len(),
		Depth:    d.Depth(),
		Width:    d.Width(),
	}
}

// TreeMetrics extracts the metrics of a serial-parallel task tree by
// embedding it into its precedence DAG.
func TreeMetrics(t *task.Task) (Metrics, error) {
	d, err := task.FromTree(t)
	if err != nil {
		return Metrics{}, err
	}
	return DagMetrics(d), nil
}

// ResponseLower returns the analytic lower bound on the task's response
// time under ANY schedule: the critical path served end to end at the
// fastest rate any server reaches. maxRate values below 1 are clamped to
// 1 (a degraded system can only be slower than nominal).
func (m Metrics) ResponseLower(maxRate float64) simtime.Duration {
	if maxRate < 1 {
		maxRate = 1
	}
	return m.Critical.Scale(1 / maxRate)
}

// IsolatedUpper returns the upper bound on the task's response time when
// it runs alone in an otherwise idle, work-conserving system: the whole
// volume served at the slowest rate. minRate values above 1 are clamped
// to 1.
func (m Metrics) IsolatedUpper(minRate float64) simtime.Duration {
	if minRate > 1 {
		minRate = 1
	}
	if minRate <= 0 {
		return simtime.Forever
	}
	return m.Volume.Scale(1 / minRate)
}

// Feasible reports whether the relative deadline d can be met at all:
// the critical path at full speed must fit.
func (m Metrics) Feasible(d simtime.Duration, maxRate float64) bool {
	return m.ResponseLower(maxRate) <= d
}

// String renders the metrics compactly for reports.
func (m Metrics) String() string {
	return fmt.Sprintf("vol=%v len=%v n=%d depth=%d width=%d",
		m.Volume, m.Critical, m.Vertices, m.Depth, m.Width)
}
