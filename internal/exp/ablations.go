package exp

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/par"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// SerialStrategies compares the four serial (SSP) strategies of the
// companion paper [6] — UD, ED, EQS, EQF — on a pure five-stage serial
// pipeline, isolating the serial subtask problem from PSP effects.
func SerialStrategies(o Options) (*Table, error) {
	loads := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	base := baseline(o)
	base.Spec.Factory = workload.SerialParallel{Stages: 5, Fanout: 1}
	base.Spec.GlobalSlackMin = 6.25
	base.Spec.GlobalSlackMax = 25
	t, err := loadSweep(o, loads, base, []variant{
		{"UD", func(c *sim.Config) { c.SSP = sda.SerialUD{} }},
		{"ED", func(c *sim.Config) { c.SSP = sda.ED{} }},
		{"EQS", func(c *sim.Config) { c.SSP = sda.EQS{} }},
		{"EQF", func(c *sim.Config) { c.SSP = sda.EQF{} }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "ssp", "Serial strategies on a 5-stage pipeline (no parallel stages)"
	t.Notes = append(t.Notes,
		"EQF significantly reduces serial global miss rates over UD (companion paper [6])")
	return t, nil
}

// PexError probes EQF's sensitivity to execution-time estimation error:
// exact predictions, predictions off by factors of 2 and 5 (log-uniform),
// and the distribution mean.
func PexError(o Options) (*Table, error) {
	estimators := []workload.Estimator{
		workload.Exact{},
		workload.Noisy{Factor: 2},
		workload.Noisy{Factor: 5},
		workload.Mean{},
	}
	loads := []float64{0.4, 0.5, 0.6, 0.7}
	t := &Table{
		ID:     "pexerr",
		Title:  "EQF-DIV1 vs pex estimation error (Figure 14 task graph)",
		XLabel: "load",
		X:      loads,
		Notes: []string{
			"the paper reports EQF remains effective with estimates off by a factor of 2",
		},
	}
	for _, e := range estimators {
		t.Series = append(t.Series, "MD_global("+e.Name()+")")
	}
	ne := len(estimators)
	results := make([]sim.Result, len(loads)*ne)
	err := par.Map(o.Workers, len(results), func(i int) error {
		li, ei := i/ne, i%ne
		cfg := fig15Base(o)
		cfg.Spec.Load = loads[li]
		cfg.Spec.Estimator = estimators[ei]
		cfg.SSP = sda.EQF{}
		cfg.PSP = sda.MustDiv(1)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s at load %v: %w", estimators[ei].Name(), loads[li], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li := range loads {
		var row, errs []float64
		for ei := range estimators {
			res := results[li*ne+ei]
			row = append(row, res.MDGlobal.Mean)
			errs = append(errs, res.MDGlobal.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// FIFOAblation contrasts deadline-blind FIFO local queues with EDF under
// the best PSP strategy, showing how much the paper's premise of
// deadline-driven local scheduling matters.
func FIFOAblation(o Options) (*Table, error) {
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	t, err := loadSweep(o, loads, baseline(o), []variant{
		{"EDF/DIV-1", func(c *sim.Config) { c.Policy = node.EDF{}; c.PSP = sda.MustDiv(1) }},
		{"FIFO/DIV-1", func(c *sim.Config) { c.Policy = node.FIFO{}; c.PSP = sda.MustDiv(1) }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fifo", "EDF vs FIFO local queues under DIV-1"
	t.Notes = append(t.Notes,
		"FIFO ignores virtual deadlines entirely, so deadline assignment cannot help it")
	return t, nil
}

// GFDelta verifies that the two GF encodings — the priority band and the
// literal dl - Delta subtraction on a plain EDF queue — behave
// identically, as the paper's construction implies.
func GFDelta(o Options) (*Table, error) {
	loads := []float64{0.3, 0.5, 0.7}
	t, err := loadSweep(o, loads, baseline(o), []variant{
		{"GF-band", func(c *sim.Config) { c.PSP = sda.GF{} }},
		{"GF-delta", func(c *sim.Config) { c.PSP = sda.GF{UseDelta: true} }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "gfdelta", "GF priority band vs literal delta encoding"
	t.Notes = append(t.Notes, "the two encodings should coincide (within noise)")
	return t, nil
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
	classes := []int{2, 3, 4, 5, 6}
	strategies := []sda.PSP{sda.MustDiv(1), flatDiv{factor: 2}, flatDiv{factor: 6}}
	t := &Table{
		ID:        "divnox",
		Title:     "DIV-1 (scales with n) vs flat divisors on the n~U[2..6] workload",
		XLabel:    "class",
		RowLabels: []string{"local"},
		Notes: []string{
			"DIV-x's n-scaling adjusts the priority boost to the task size automatically",
		},
	}
	var variants []variant
	for _, s := range strategies {
		t.Series = append(t.Series, s.Name())
		variants = append(variants, variant{s.Name(), func(c *sim.Config) { c.PSP = s }})
	}
	if err := classRows(o, t, classes, variants); err != nil {
		return nil, err
	}
	return t, nil
}

// Preemption compares the paper's non-preemptive EDF service with a
// preemptive-resume EDF server under DIV-1. Preemption lets urgent
// arrivals interrupt long jobs, which mostly helps the locals competing
// with boosted subtasks.
func Preemption(o Options) (*Table, error) {
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	t, err := loadSweep(o, loads, baseline(o), []variant{
		{"nonpreempt", func(c *sim.Config) { c.PSP = sda.MustDiv(1); c.Preemptive = false }},
		{"preempt", func(c *sim.Config) { c.PSP = sda.MustDiv(1); c.Preemptive = true }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "preempt", "Non-preemptive vs preemptive-resume EDF under DIV-1"
	t.Notes = append(t.Notes,
		"the paper's model is non-preemptive; preemption is an ablation on the service discipline")
	return t, nil
}

// Policies compares local scheduling disciplines under the best simple
// strategy pair (UD locals + DIV-1 subtasks): deadline-driven EDF and LLF
// against deadline-blind SJF and FIFO.
func Policies(o Options) (*Table, error) {
	loads := []float64{0.3, 0.5, 0.7}
	t, err := loadSweep(o, loads, baseline(o), []variant{
		{"EDF", func(c *sim.Config) { c.Policy = node.EDF{}; c.PSP = sda.MustDiv(1) }},
		{"LLF", func(c *sim.Config) { c.Policy = node.LLF{}; c.PSP = sda.MustDiv(1) }},
		{"SJF", func(c *sim.Config) { c.Policy = node.SJF{}; c.PSP = sda.MustDiv(1) }},
		{"FIFO", func(c *sim.Config) { c.Policy = node.FIFO{}; c.PSP = sda.MustDiv(1) }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "policies", "Local scheduling policies under DIV-1"
	t.Notes = append(t.Notes,
		"deadline-driven policies (EDF, LLF) act on the assigned virtual deadlines; SJF/FIFO cannot")
	return t, nil
}

// ServiceDist probes how service-time variability affects the strategies:
// DIV-1 on the baseline with deterministic, Erlang-4, exponential and
// hyperexponential (SCV 4) execution times for both locals and subtasks.
func ServiceDist(o Options) (*Table, error) {
	dists := []workload.Dist{
		workload.Deterministic{},
		workload.ErlangK{K: 4},
		workload.Exponential{},
		workload.HyperExp{CV2: 4},
	}
	loads := []float64{0.3, 0.5, 0.7}
	t := &Table{
		ID:     "svcdist",
		Title:  "Service-time variability under DIV-1 (SCV 0, 1/4, 1, 4)",
		XLabel: "load",
		X:      loads,
		Notes: []string{
			"higher service variability raises every miss rate; the paper's model is exponential (SCV 1)",
		},
	}
	for _, d := range dists {
		t.Series = append(t.Series,
			"MD_local("+d.Name()+")", "MD_global("+d.Name()+")")
	}
	nd := len(dists)
	results := make([]sim.Result, len(loads)*nd)
	err := par.Map(o.Workers, len(results), func(i int) error {
		li, di := i/nd, i%nd
		cfg := baseline(o)
		cfg.Spec.Load = loads[li]
		cfg.Spec.LocalService = dists[di]
		cfg.Spec.SubtaskService = dists[di]
		cfg.PSP = sda.MustDiv(1)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s at load %v: %w", dists[di].Name(), loads[li], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li := range loads {
		var row, errs []float64
		for di := range dists {
			res := results[li*nd+di]
			row = append(row, res.MDLocal.Mean, res.MDGlobal.Mean)
			errs = append(errs, res.MDLocal.HalfWidth, res.MDGlobal.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// Network reproduces the paper's "network as a resource" treatment
// (Section 3.2): the Figure 14 pipeline with explicit network-hop
// subtasks between stages, queueing at dedicated network nodes. Two
// network nodes carry all inter-stage traffic, so they congest first.
func Network(o Options) (*Table, error) {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	base := baseline(o)
	base.Spec.K = 8 // 6 compute + 2 network
	base.Spec.Factory = workload.NetworkPipeline{
		Stages: 5, Fanout: 4, NetNodes: 2, HopMean: 0.25,
	}
	base.Spec.GlobalSlackMin = 6.25
	base.Spec.GlobalSlackMax = 25
	t, err := loadSweep(o, loads, base, []variant{
		{"UD-UD", func(c *sim.Config) { c.SSP = sda.SerialUD{}; c.PSP = sda.UD{} }},
		{"EQF-DIV1", func(c *sim.Config) { c.SSP = sda.EQF{}; c.PSP = sda.MustDiv(1) }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "network", "Pipeline with explicit network-hop subtasks (2 network nodes)"
	t.Notes = append(t.Notes,
		"network hops are scheduled resources like any node; EQF-DIV1 budgets them the same way")
	return t, nil
}

// Scale varies the system size k at fixed load and fan-out. With n = 4
// parallel subtasks spread over more nodes, the chance that two subtasks
// of one task collide on a busy node falls, but each node's local mix is
// unchanged — the PSP effect persists at every scale.
func Scale(o Options) (*Table, error) {
	ks := []float64{4, 6, 12, 24}
	t := &Table{
		ID:     "scale",
		Title:  "System size k at fixed load 0.5 (n = 4 parallel subtasks)",
		XLabel: "k",
		X:      ks,
		Series: []string{
			"MD_local(UD)", "MD_global(UD)",
			"MD_local(DIV-1)", "MD_global(DIV-1)",
		},
		Notes: []string{
			"miss rates are nearly scale-free: the paper's k=6 results generalise to larger systems",
		},
	}
	variants := []variant{
		{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }},
		{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }},
	}
	results := make([]sim.Result, len(ks)*2)
	err := par.Map(o.Workers, len(results), func(i int) error {
		ki, vi := i/2, i%2
		cfg := baseline(o)
		cfg.Spec.K = int(ks[ki])
		variants[vi].mutate(&cfg)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s at k=%v: %w", variants[vi].name, ks[ki], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki := range ks {
		var row, errs []float64
		for vi := range variants {
			res := results[ki*2+vi]
			row = append(row, res.MDLocal.Mean, res.MDGlobal.Mean)
			errs = append(errs, res.MDLocal.HalfWidth, res.MDGlobal.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}
