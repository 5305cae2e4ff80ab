package analysis

import (
	"repro/internal/simtime"
	"repro/internal/task"
)

// CondRealization pairs one realization of a conditional DAG with its
// probability and metrics.
type CondRealization struct {
	Dag     *task.Dag
	Prob    float64
	Metrics Metrics
}

// CondSummary aggregates the analytic view of a probabilistic conditional
// DAG over its full realization set.
type CondSummary struct {
	Realizations []CondRealization

	// ExpVolume is the expected total work, sum of p_i * vol(G_i).
	ExpVolume float64
	// ExpCritical is sum of p_i * len(G_i) — by the per-realization lower
	// bound, E[R] >= ExpCritical/rmax under any schedule.
	ExpCritical float64
	// MinCritical and MaxCritical bound the critical path across
	// realizations; MaxVolume bounds the volume.
	MinCritical, MaxCritical simtime.Duration
	MaxVolume                simtime.Duration
	// Activation[v] is the exact activation probability of base vertex v.
	Activation []float64
}

// SummarizeCond enumerates the realizations of cd (limit as in
// task.Realizations; <= 0 means the default cap) and computes the
// aggregate analytic measures.
func SummarizeCond(cd *task.CondDag, limit int) (*CondSummary, error) {
	reals, err := cd.Realizations(limit)
	if err != nil {
		return nil, err
	}
	s := &CondSummary{
		Realizations: make([]CondRealization, 0, len(reals)),
		MinCritical:  simtime.Forever,
		Activation:   make([]float64, cd.Dag().Len()),
	}
	for _, r := range reals {
		m := DagMetrics(r.Dag)
		s.Realizations = append(s.Realizations, CondRealization{Dag: r.Dag, Prob: r.Prob, Metrics: m})
		s.ExpVolume += float64(r.Prob * float64(m.Volume))
		s.ExpCritical += float64(r.Prob * float64(m.Critical))
		s.MinCritical = s.MinCritical.Min(m.Critical)
		s.MaxCritical = s.MaxCritical.Max(m.Critical)
		s.MaxVolume = s.MaxVolume.Max(m.Volume)
		for id, on := range r.Active {
			if on {
				s.Activation[id] += r.Prob
			}
		}
	}
	return s, nil
}

// ExpResponseLower returns the analytic lower bound on the EXPECTED
// response time over the branch distribution: each realization needs at
// least its critical path at the fastest rate, so
//
//	E[R] >= sum p_i * len(G_i) / rmax.
func (s *CondSummary) ExpResponseLower(maxRate float64) simtime.Duration {
	if maxRate < 1 {
		maxRate = 1
	}
	return simtime.Duration(s.ExpCritical / maxRate)
}

// MissLowerBound returns the analytic lower bound on the miss ratio for a
// relative deadline d: the total probability of realizations whose
// critical path cannot fit in d even at the fastest rate. Those
// realizations miss under every schedule, so no simulator or scheduler
// can achieve a lower miss ratio.
func (s *CondSummary) MissLowerBound(d simtime.Duration, maxRate float64) float64 {
	var p float64
	for _, r := range s.Realizations {
		if !r.Metrics.Feasible(d, maxRate) {
			p += r.Prob
		}
	}
	return p
}
