package exp

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// SerialStrategies compares the four serial (SSP) strategies of the
// companion paper [6] — UD, ED, EQS, EQF — on a pure five-stage serial
// pipeline, isolating the serial subtask problem from PSP effects.
func SerialStrategies(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "ssp", Title: "Serial strategies on a 5-stage pipeline (no parallel stages)",
		XLabel: "load", X: []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		Notes: []string{"EQF significantly reduces serial global miss rates over UD (companion paper [6])"},
	}, serialBase(o, 1), atLoad, []variant{
		{"UD", func(c *sim.Config) { c.SSP = sda.SerialUD{} }},
		{"ED", func(c *sim.Config) { c.SSP = sda.ED{} }},
		{"EQS", func(c *sim.Config) { c.SSP = sda.EQS{} }},
		{"EQF", func(c *sim.Config) { c.SSP = sda.EQF{} }},
	}, mdPair)
}

// PexError probes EQF's sensitivity to execution-time estimation error:
// exact predictions, predictions off by factors of 2 and 5 (log-uniform),
// and the distribution mean.
func PexError(o Options) (*Table, error) {
	var estimators []variant
	for _, e := range []workload.Estimator{
		workload.Exact{},
		workload.Noisy{Factor: 2},
		workload.Noisy{Factor: 5},
		workload.Mean{},
	} {
		estimators = append(estimators, variant{e.Name(), func(c *sim.Config) { c.Spec.Estimator = e }})
	}
	base := serialBase(o, 4)
	base.SSP, base.PSP = sda.EQF{}, sda.MustDiv(1)
	return sweep(o, &Table{
		ID: "pexerr", Title: "EQF-DIV1 vs pex estimation error (Figure 14 task graph)",
		XLabel: "load", X: []float64{0.4, 0.5, 0.6, 0.7},
		Notes: []string{"the paper reports EQF remains effective with estimates off by a factor of 2"},
	}, base, atLoad, estimators, []col{mdGlobal})
}

// FIFOAblation contrasts deadline-blind FIFO local queues with EDF under
// the best PSP strategy, showing how much the paper's premise of
// deadline-driven local scheduling matters.
func FIFOAblation(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "fifo", Title: "EDF vs FIFO local queues under DIV-1",
		XLabel: "load", X: []float64{0.3, 0.5, 0.7, 0.9},
		Notes: []string{"FIFO ignores virtual deadlines entirely, so deadline assignment cannot help it"},
	}, BaselineConfig(o), atLoad, []variant{
		{"EDF/DIV-1", func(c *sim.Config) { c.Policy = node.EDF{}; c.PSP = sda.MustDiv(1) }},
		{"FIFO/DIV-1", func(c *sim.Config) { c.Policy = node.FIFO{}; c.PSP = sda.MustDiv(1) }},
	}, mdPair)
}

// GFDelta verifies that the two GF encodings — the priority band and the
// literal dl - Delta subtraction on a plain EDF queue — behave
// identically, as the paper's construction implies.
func GFDelta(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "gfdelta", Title: "GF priority band vs literal delta encoding",
		XLabel: "load", X: []float64{0.3, 0.5, 0.7},
		Notes: []string{"the two encodings should coincide (within noise)"},
	}, BaselineConfig(o), atLoad, []variant{
		{"GF-band", func(c *sim.Config) { c.PSP = sda.GF{} }},
		{"GF-delta", func(c *sim.Config) { c.PSP = sda.GF{UseDelta: true} }},
	}, mdPair)
}

// flatDiv is a DIV variant that ignores the fan-out n: it divides the
// allowance by a fixed factor only. It exists to demonstrate why the
// paper's DIV-x scales with the number of subtasks.
type flatDiv struct {
	factor float64
}

var _ sda.PSP = flatDiv{}

// AssignParallel implements sda.PSP.
func (f flatDiv) AssignParallel(ar simtime.Time, deadline simtime.Time, _ int) sda.Assignment {
	allowance := deadline.Sub(ar)
	if allowance < 0 {
		return sda.Assignment{Virtual: deadline}
	}
	v := ar.Add(allowance.Scale(1 / f.factor))
	return sda.Assignment{Virtual: v.Min(deadline)}
}

// Name implements sda.PSP.
func (f flatDiv) Name() string { return fmt.Sprintf("FLAT-%g", f.factor) }

// DivNoFanout compares DIV-1 against flat divisors on the non-homogeneous
// workload: a fixed divisor cannot adapt to tasks of different sizes, so
// per-class miss rates stay skewed.
func DivNoFanout(o Options) (*Table, error) {
	var variants []variant
	for _, s := range []sda.PSP{sda.MustDiv(1), flatDiv{factor: 2}, flatDiv{factor: 6}} {
		variants = append(variants, variant{s.Name(), func(c *sim.Config) { c.PSP = s }})
	}
	return classRows(o, &Table{
		ID:     "divnox",
		Title:  "DIV-1 (scales with n) vs flat divisors on the n~U[2..6] workload",
		XLabel: "class",
		Notes: []string{
			"DIV-x's n-scaling adjusts the priority boost to the task size automatically",
		},
	}, variants)
}

// Preemption compares the paper's non-preemptive EDF service with a
// preemptive-resume EDF server under DIV-1. Preemption lets urgent
// arrivals interrupt long jobs, which mostly helps the locals competing
// with boosted subtasks.
func Preemption(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "preempt", Title: "Non-preemptive vs preemptive-resume EDF under DIV-1",
		XLabel: "load", X: []float64{0.3, 0.5, 0.7, 0.9},
		Notes: []string{"the paper's model is non-preemptive; preemption is an ablation on the service discipline"},
	}, BaselineConfig(o), atLoad, []variant{
		{"nonpreempt", func(c *sim.Config) { c.PSP = sda.MustDiv(1); c.Preemptive = false }},
		{"preempt", func(c *sim.Config) { c.PSP = sda.MustDiv(1); c.Preemptive = true }},
	}, mdPair)
}

// Policies compares local scheduling disciplines under the best simple
// strategy pair (UD locals + DIV-1 subtasks): deadline-driven EDF and LLF
// against deadline-blind SJF and FIFO.
func Policies(o Options) (*Table, error) {
	var policies []variant
	for _, p := range []node.Policy{node.EDF{}, node.LLF{}, node.SJF{}, node.FIFO{}} {
		policies = append(policies, variant{p.Name(), func(c *sim.Config) { c.Policy = p; c.PSP = sda.MustDiv(1) }})
	}
	return sweep(o, &Table{
		ID: "policies", Title: "Local scheduling policies under DIV-1",
		XLabel: "load", X: []float64{0.3, 0.5, 0.7},
		Notes: []string{"deadline-driven policies (EDF, LLF) act on the assigned virtual deadlines; SJF/FIFO cannot"},
	}, BaselineConfig(o), atLoad, policies, mdPair)
}

// ServiceDist probes how service-time variability affects the strategies:
// DIV-1 on the baseline with deterministic, Erlang-4, exponential and
// hyperexponential (SCV 4) execution times for both locals and subtasks.
func ServiceDist(o Options) (*Table, error) {
	var dists []variant
	for _, d := range []workload.Dist{
		workload.Deterministic{},
		workload.ErlangK{K: 4},
		workload.Exponential{},
		workload.HyperExp{CV2: 4},
	} {
		dists = append(dists, variant{d.Name(), func(c *sim.Config) {
			c.Spec.LocalService, c.Spec.SubtaskService = d, d
		}})
	}
	base := BaselineConfig(o)
	base.PSP = sda.MustDiv(1)
	return sweep(o, &Table{
		ID: "svcdist", Title: "Service-time variability under DIV-1 (SCV 0, 1/4, 1, 4)",
		XLabel: "load", X: []float64{0.3, 0.5, 0.7},
		Notes: []string{"higher service variability raises every miss rate; the paper's model is exponential (SCV 1)"},
	}, base, atLoad, dists, mdPair)
}

// Network reproduces the paper's "network as a resource" treatment
// (Section 3.2): the Figure 14 pipeline with explicit network-hop
// subtasks between stages, queueing at dedicated network nodes. Two
// network nodes carry all inter-stage traffic, so they congest first.
func Network(o Options) (*Table, error) {
	base := serialBase(o, 4)
	base.Spec.K = 8 // 6 compute + 2 network
	base.Spec.Factory = workload.NetworkPipeline{
		Stages: 5, Fanout: 4, NetNodes: 2, HopMean: 0.25,
	}
	return sweep(o, &Table{
		ID: "network", Title: "Pipeline with explicit network-hop subtasks (2 network nodes)",
		XLabel: "load", X: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		Notes: []string{"network hops are scheduled resources like any node; EQF-DIV1 budgets them the same way"},
	}, base, atLoad, []variant{
		{"UD-UD", func(c *sim.Config) { c.SSP = sda.SerialUD{}; c.PSP = sda.UD{} }},
		{"EQF-DIV1", func(c *sim.Config) { c.SSP = sda.EQF{}; c.PSP = sda.MustDiv(1) }},
	}, mdPair)
}

// Scale varies the system size k at fixed load and fan-out. With n = 4
// parallel subtasks spread over more nodes, the chance that two subtasks
// of one task collide on a busy node falls, but each node's local mix is
// unchanged — the PSP effect persists at every scale.
func Scale(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "scale", Title: "System size k at fixed load 0.5 (n = 4 parallel subtasks)",
		XLabel: "k", X: []float64{4, 6, 12, 24},
		Notes: []string{"miss rates are nearly scale-free: the paper's k=6 results generalise to larger systems"},
	}, BaselineConfig(o), func(c *sim.Config, k float64) { c.Spec.K = int(k) }, []variant{ud, div1}, mdPair)
}
