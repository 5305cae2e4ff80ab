package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// Service is one service-time law: a distribution family at a mean. Every
// execution time the workload draws comes from one. A nil Dist is the
// paper's exponential law.
type Service struct {
	Dist Dist
	Mean float64
}

// Draw draws one execution time from the law.
func (v Service) Draw(s *rng.Stream) simtime.Duration {
	if v.Dist == nil {
		return simtime.Duration(s.Exp(v.Mean))
	}
	return simtime.Duration(v.Dist.Sample(v.Mean, s))
}

// Dist is a family of positive service-time distributions parameterised
// by their mean. The paper's model is exponential (SCV 1); the other
// families support the service-variability ablation and M/G/1 validation.
type Dist interface {
	// Sample draws one service time with the given mean.
	Sample(mean float64, s *rng.Stream) float64
	// SCV returns the squared coefficient of variation (variance/mean²),
	// the parameter in the Pollaczek-Khinchine formula.
	SCV() float64
	// Name identifies the distribution in reports.
	Name() string
}

// Compile-time interface checks.
var (
	_ Dist = Exponential{}
	_ Dist = Deterministic{}
	_ Dist = ErlangK{}
	_ Dist = HyperExp{}
)

// Exponential is the paper's service-time family (SCV = 1).
type Exponential struct{}

// Sample implements Dist.
func (Exponential) Sample(mean float64, s *rng.Stream) float64 { return s.Exp(mean) }

// SCV implements Dist.
func (Exponential) SCV() float64 { return 1 }

// Name implements Dist.
func (Exponential) Name() string { return "exp" }

// Deterministic service times (SCV = 0): every task takes exactly the
// mean.
type Deterministic struct{}

// Sample implements Dist.
func (Deterministic) Sample(mean float64, _ *rng.Stream) float64 { return mean }

// SCV implements Dist.
func (Deterministic) SCV() float64 { return 0 }

// Name implements Dist.
func (Deterministic) Name() string { return "det" }

// ErlangK is the sum of K exponential phases (SCV = 1/K), interpolating
// between exponential (K=1) and deterministic (K→∞).
type ErlangK struct {
	K int
}

// Sample implements Dist.
func (e ErlangK) Sample(mean float64, s *rng.Stream) float64 {
	k := e.K
	if k < 1 {
		k = 1
	}
	phaseMean := mean / float64(k)
	total := 0.0
	for i := 0; i < k; i++ {
		total += s.Exp(phaseMean)
	}
	return total
}

// SCV implements Dist.
func (e ErlangK) SCV() float64 {
	if e.K < 1 {
		return 1
	}
	return 1 / float64(e.K)
}

// Name implements Dist.
func (e ErlangK) Name() string { return fmt.Sprintf("erlang%d", e.K) }

// HyperExp is a two-phase balanced-means hyperexponential with a chosen
// SCV > 1, modelling highly variable service demands (a few very long
// jobs among many short ones).
type HyperExp struct {
	CV2 float64 // desired squared coefficient of variation (> 1)
}

// params returns the branch probability p and the two branch means
// (m1 = mean/(2p), m2 = mean/(2(1-p))) of the balanced-means construction.
func (h HyperExp) params(mean float64) (p, m1, m2 float64) {
	cv2 := h.CV2
	if cv2 <= 1 {
		return 0.5, mean, mean // degenerates to exponential
	}
	// Balanced means: p*m1 = (1-p)*m2 = mean/2, with
	// p = (1 + sqrt((cv2-1)/(cv2+1))) / 2.
	p = float64((1 + math.Sqrt((cv2-1)/(cv2+1))) / 2)
	return p, mean / (2 * p), mean / (2 * (1 - p))
}

// Sample implements Dist.
func (h HyperExp) Sample(mean float64, s *rng.Stream) float64 {
	p, m1, m2 := h.params(mean)
	if s.Float64() < p {
		return s.Exp(m1)
	}
	return s.Exp(m2)
}

// SCV implements Dist.
func (h HyperExp) SCV() float64 {
	if h.CV2 <= 1 {
		return 1
	}
	return h.CV2
}

// Name implements Dist.
func (h HyperExp) Name() string { return fmt.Sprintf("hyper%.3g", h.CV2) }
