// Package queueing provides closed-form results from elementary queueing
// theory. The simulator's nodes, fed by Poisson arrivals with exponential
// service, are M/M/1 queues whenever deadlines do not change the service
// *order statistics being measured* (mean response time is invariant under
// any non-idling, non-anticipating discipline such as EDF or FIFO). These
// formulas give the test suite independent ground truth for the simulation
// substrate, and give users analytical baselines to sanity-check
// configurations against.
package queueing

import (
	"errors"
	"math"
)

// ErrUnstable is returned when the offered load is >= 1 (or invalid), so
// the steady-state quantities do not exist.
var ErrUnstable = errors.New("queueing: system not stable (need 0 <= rho < 1)")

// MM1 describes a single-server queue with Poisson arrivals of rate
// Lambda and exponential service of rate Mu.
type MM1 struct {
	Lambda float64 // arrival rate
	Mu     float64 // service rate
}

// Rho returns the offered load λ/μ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// valid reports stability.
func (q MM1) valid() error {
	if q.Mu <= 0 || q.Lambda < 0 || q.Rho() >= 1 {
		return ErrUnstable
	}
	return nil
}

// MeanResponse returns E[T] = 1/(μ-λ), the mean time in system.
func (q MM1) MeanResponse() (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	return 1 / (q.Mu - q.Lambda), nil
}

// MeanWait returns E[W] = ρ/(μ-λ), the mean time in queue.
func (q MM1) MeanWait() (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	return q.Rho() / (q.Mu - q.Lambda), nil
}

// MeanNumber returns E[N] = ρ/(1-ρ), the mean number in system.
func (q MM1) MeanNumber() (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	rho := q.Rho()
	return rho / (1 - rho), nil
}

// MeanQueueLength returns E[Nq] = ρ²/(1-ρ), the mean number waiting.
func (q MM1) MeanQueueLength() (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	rho := q.Rho()
	return rho * rho / (1 - rho), nil
}

// ResponseQuantile returns the p-quantile of the (exponential) response
// time distribution: T ~ Exp(μ-λ).
func (q MM1) ResponseQuantile(p float64) (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	if p < 0 || p >= 1 {
		return 0, errors.New("queueing: quantile needs 0 <= p < 1")
	}
	return -math.Log(1-p) / (q.Mu - q.Lambda), nil
}

// ProbResponseExceeds returns P(T > t) = exp(-(μ-λ)t).
func (q MM1) ProbResponseExceeds(t float64) (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	if t < 0 {
		return 1, nil
	}
	return math.Exp(-(q.Mu - q.Lambda) * t), nil
}

// MissProbUniformSlack returns the steady-state probability that a task
// with deadline ar + S + E (S its slack, E its own service requirement)
// misses, when S is uniform on [a, b] and the task's response time is the
// M/M/1 exponential response T ~ Exp(ν), ν = μ-λ. A task misses when its
// *waiting plus service* exceeds S + E; using the memoryless response
// approximation T ⊥ S,
//
//	P(miss) = E_S[ P(T > S + E) ].
//
// This ignores the correlation between a task's own service time and its
// response (both include E), so it is an approximation — the test suite
// uses it as a sanity band for MD_local under UD, not an exact oracle.
func (q MM1) MissProbUniformSlack(a, b float64) (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	if b < a {
		return 0, errors.New("queueing: inverted slack range")
	}
	nu := q.Mu - q.Lambda
	// P(W > S) where W ~ Exp-wait: P(W > s) = rho * exp(-nu s) for s >= 0
	// (M/M/1 waiting time has an atom 1-rho at zero). A task misses iff
	// its waiting time exceeds its slack.
	rho := q.Rho()
	if b == a {
		return rho * math.Exp(-nu*a), nil
	}
	// Average rho*exp(-nu*s) over s ~ U[a, b].
	integral := (math.Exp(-nu*a) - math.Exp(-nu*b)) / (nu * (b - a))
	return rho * integral, nil
}

// LittlesLaw returns L = λ·W, the mean number in (sub)system implied by a
// mean time W at throughput λ. It is distribution-free and exact.
func LittlesLaw(lambda, meanTime float64) float64 { return lambda * meanTime }

// MMC describes a c-server queue with Poisson arrivals and exponential
// service (per-server rate Mu).
type MMC struct {
	Lambda  float64
	Mu      float64
	Servers int
}

// Rho returns the per-server offered load λ/(c·μ).
func (q MMC) Rho() float64 { return q.Lambda / (float64(q.Servers) * q.Mu) }

func (q MMC) valid() error {
	if q.Servers < 1 || q.Mu <= 0 || q.Lambda < 0 || q.Rho() >= 1 {
		return ErrUnstable
	}
	return nil
}

// ErlangC returns the probability that an arriving customer must wait
// (all c servers busy), via the Erlang C formula.
func (q MMC) ErlangC() (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	c := q.Servers
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Numerically stable iterative computation of the Erlang B blocking
	// probability, then the standard B -> C conversion.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + float64(a*b))
	}
	rho := q.Rho()
	return b / (1 - float64(rho*(1-b))), nil
}

// MeanWait returns E[W] = C(c, a) / (c·μ - λ), the mean time in queue.
func (q MMC) MeanWait() (float64, error) {
	pc, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	return pc / (float64(float64(q.Servers)*q.Mu) - q.Lambda), nil
}

// MeanResponse returns E[T] = E[W] + 1/μ.
func (q MMC) MeanResponse() (float64, error) {
	w, err := q.MeanWait()
	if err != nil {
		return 0, err
	}
	return w + 1/q.Mu, nil
}

// MeanQueueLength returns E[Nq] = λ·E[W] (Little's law).
func (q MMC) MeanQueueLength() (float64, error) {
	w, err := q.MeanWait()
	if err != nil {
		return 0, err
	}
	return q.Lambda * w, nil
}

// MG1 describes a single-server queue with Poisson arrivals and a general
// service-time distribution characterised by its mean 1/Mu and squared
// coefficient of variation SCV.
type MG1 struct {
	Lambda float64
	Mu     float64
	SCV    float64 // variance / mean² of the service distribution
}

// Rho returns the offered load λ/μ.
func (q MG1) Rho() float64 { return q.Lambda / q.Mu }

func (q MG1) valid() error {
	if q.Mu <= 0 || q.Lambda < 0 || q.SCV < 0 || q.Rho() >= 1 {
		return ErrUnstable
	}
	return nil
}

// MeanWait returns the Pollaczek-Khinchine mean waiting time
//
//	E[W] = ρ/(1-ρ) · (1+SCV)/2 · E[S],
//
// exact for any non-preemptive, work-conserving discipline that does not
// use service times (FIFO, EDF, ...).
func (q MG1) MeanWait() (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	rho := q.Rho()
	return rho / (1 - rho) * (1 + q.SCV) / 2 / q.Mu, nil
}

// MeanResponse returns E[T] = E[W] + E[S].
func (q MG1) MeanResponse() (float64, error) {
	w, err := q.MeanWait()
	if err != nil {
		return 0, err
	}
	return w + 1/q.Mu, nil
}

// MeanQueueLength returns E[Nq] = λ·E[W].
func (q MG1) MeanQueueLength() (float64, error) {
	w, err := q.MeanWait()
	if err != nil {
		return 0, err
	}
	return q.Lambda * w, nil
}
