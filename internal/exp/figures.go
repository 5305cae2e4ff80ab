package exp

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// loadSweepDefault is the load axis used by the paper's load plots. The
// paper stresses intermediate-to-high loads; a stable system needs
// load < 1.
var loadSweepDefault = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// variant is one configuration compared in a sweep — usually a strategy —
// contributing one series per column.
type variant struct {
	name   string
	mutate func(*sim.Config)
}

// The PSP strategies most experiments compare.
var (
	ud   = variant{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }}
	div1 = variant{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }}
	gf   = variant{"GF", func(c *sim.Config) { c.PSP = sda.GF{} }}
)

// col is one per-variant series of a sweep: a miss ratio read from a
// cell's result.
type col struct {
	name string
	pick func(sim.Result) stats.Interval
}

var (
	mdLocal   = col{"MD_local", func(r sim.Result) stats.Interval { return r.MDLocal }}
	mdGlobal  = col{"MD_global", func(r sim.Result) stats.Interval { return r.MDGlobal }}
	mdSubtask = col{"MD_subtask", func(r sim.Result) stats.Interval { return r.MDSubtask }}
	mdPair    = []col{mdLocal, mdGlobal}
)

// atLoad sets a sweep cell's offered load.
func atLoad(c *sim.Config, load float64) { c.Spec.Load = load }

// BaselineConfig returns the Table 1 baseline cell at the given fidelity.
func BaselineConfig(o Options) sim.Config {
	cfg := sim.Default()
	o.apply(&cfg)
	return cfg
}

// sweep runs every variant at every x of t.X — base, then at(x), then the
// variant's mutation — and fills t with the series col(variant) for each
// variant and column, one row per x. The cells are independent
// simulations and run in parallel; results are deterministic because
// every cell's seed is fixed by the options.
func sweep(o Options, t *Table, base sim.Config, at func(*sim.Config, float64), variants []variant, cols []col) (*Table, error) {
	for _, v := range variants {
		for _, c := range cols {
			t.Series = append(t.Series, c.name+"("+v.name+")")
		}
	}
	nv := len(variants)
	results := make([]sim.Result, len(t.X)*nv)
	err := par.Map(o.Workers, len(results), func(i int) error {
		x, v := t.X[i/nv], variants[i%nv]
		cfg := base
		at(&cfg, x)
		v.mutate(&cfg)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s at %s %v: %w", v.name, t.XLabel, x, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for xi := range t.X {
		var row, errs []float64
		for _, res := range results[xi*nv : (xi+1)*nv] {
			for _, c := range cols {
				iv := c.pick(res)
				row = append(row, iv.Mean)
				errs = append(errs, iv.HalfWidth)
			}
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// Fig5 reproduces Figure 5: the UD baseline's miss rates for local tasks,
// simple subtasks and global tasks as a function of load.
func Fig5(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "fig5", Title: "Performance of UD in baseline experiment",
		XLabel: "load", X: loadSweepDefault,
		Notes: []string{"paper anchors at load 0.5: MD_local ~ 8.9%, MD_subtask ~ 7.1%, MD_global ~ 25%"},
	}, BaselineConfig(o), atLoad, []variant{ud}, []col{mdLocal, mdGlobal, mdSubtask})
}

// Fig6 reproduces Figure 6: UD vs DIV-1 vs DIV-2 across load.
func Fig6(o Options) (*Table, error) {
	div2 := variant{"DIV-2", func(c *sim.Config) { c.PSP = sda.MustDiv(2) }}
	return sweep(o, &Table{
		ID: "fig6", Title: "Performance of UD and DIV-x in baseline experiment",
		XLabel: "load", X: loadSweepDefault,
		Notes: []string{"paper anchors at load 0.5: DIV-1 MD_local ~ 11.7%, MD_global ~ 13%; DIV-2 ~ DIV-1"},
	}, BaselineConfig(o), atLoad, []variant{ud, div1, div2}, mdPair)
}

// Fig7 reproduces Figure 7: UD vs DIV-1 vs GF across load.
func Fig7(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "fig7", Title: "Performance of UD, DIV-1 and GF in baseline experiment",
		XLabel: "load", X: loadSweepDefault,
		Notes: []string{"GF matches DIV-1 on locals while missing significantly fewer globals, especially under high load"},
	}, BaselineConfig(o), atLoad, []variant{ud, div1, gf}, mdPair)
}

// Fig9 reproduces Figure 9: MD under DIV-x as a function of x, for global
// tasks with n = 2, 4 and 6 parallel subtasks, at the baseline load.
func Fig9(o Options) (*Table, error) {
	var fanouts []variant
	for _, n := range []int{2, 4, 6} {
		fanouts = append(fanouts, variant{fmt.Sprintf("n=%d", n),
			func(c *sim.Config) { c.Spec.Factory = workload.FixedParallel{N: n} }})
	}
	return sweep(o, &Table{
		ID: "fig9", Title: "MD under DIV-x as a function of x for n = 2, 4, 6",
		XLabel: "x", X: []float64{0.25, 0.5, 1, 2, 3, 4, 6, 8},
		Notes: []string{"curves flatten as x grows; they stabilise at smaller x for larger n; x = 1 is adequate"},
	}, BaselineConfig(o), func(c *sim.Config, x float64) { c.PSP = sda.MustDiv(x) }, fanouts, mdPair)
}

// fracLocals is the frac_local axis of Figures 10(a) and 10(b).
var fracLocals = []float64{0, 0.2, 0.4, 0.6, 0.75, 0.9}

const fracLocalNote = "UD's rates rise mildly with frac_local; the challenger's fall — it is most effective with a large local population"

func atFracLocal(c *sim.Config, f float64) { c.Spec.FracLocal = f }

// Fig10a reproduces Figure 10(a): DIV-1 as a function of frac_local.
func Fig10a(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "fig10a", Title: "DIV-1 as a function of frac_local",
		XLabel: "frac_local", X: fracLocals,
		Notes: []string{fracLocalNote},
	}, BaselineConfig(o), atFracLocal, []variant{ud, div1}, mdPair)
}

// Fig10b reproduces Figure 10(b): GF as a function of frac_local. At
// frac_local = 0 GF degenerates to UD (all deadlines shifted equally).
func Fig10b(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "fig10b", Title: "GF as a function of frac_local",
		XLabel: "frac_local", X: fracLocals,
		Notes: []string{fracLocalNote, "at frac_local = 0, GF performs exactly like UD"},
	}, BaselineConfig(o), atFracLocal, []variant{ud, gf}, mdPair)
}

// Fig11 reproduces Figure 11: UD and DIV-1 with process-manager abortion.
func Fig11(o Options) (*Table, error) {
	base := BaselineConfig(o)
	base.Abort = sim.AbortProcessManager
	return sweep(o, &Table{
		ID: "fig11", Title: "UD and DIV-1 with process-manager abortion",
		XLabel: "load", X: loadSweepDefault,
		Notes: []string{
			"paper anchors at load 0.5: MD_global(UD) ~ 15%, MD_global(DIV-1) ~ 7.8%",
			"the paper omits GF's curves for legibility (similar to DIV-1); they are included here",
		},
	}, base, atLoad, []variant{ud, div1, gf}, mdPair)
}

// LocalAbort reproduces the Section 7.3 discussion (results "not shown" in
// the paper): DIV-x with local-scheduler aborts across x, versus the same
// strategy with process-manager aborts, in the paper's "moderate to tight"
// environment (elevated load, small slack). Both policies reclaim capacity
// from tardy work, but local aborts kill subtasks that still had time and
// burn their slack in failed trials.
func LocalAbort(o Options) (*Table, error) {
	base := BaselineConfig(o)
	base.Spec.Load = 0.6
	base.Spec.SlackMin, base.Spec.SlackMax = 0.5, 2.0
	return sweep(o, &Table{
		ID: "localabort", Title: "DIV-x: local-scheduler vs process-manager abortion (load 0.6, slack [0.5, 2])",
		XLabel: "x", X: []float64{0.5, 1, 2, 4, 8},
		Notes: []string{"local aborts waste slack on spurious kills: MD_global stays well above the process-manager-abort level"},
	}, base, func(c *sim.Config, x float64) { c.PSP = sda.MustDiv(x) }, []variant{
		{"pm-abort", func(c *sim.Config) { c.Abort = sim.AbortProcessManager }},
		{"local-abort", func(c *sim.Config) { c.Abort = sim.AbortLocalScheduler }},
	}, mdPair)
}

// Fig12 reproduces Figure 12: per-class miss rates (locals and globals
// with n = 2..6 subtasks) under UD, DIV-1 and GF, for the non-homogeneous
// workload of Section 7.4.
func Fig12(o Options) (*Table, error) {
	return classRows(o, &Table{
		ID:     "fig12",
		Title:  "MD of task classes under the PSP strategies (n uniform on [2..6])",
		XLabel: "class",
		Notes: []string{
			"UD penalises large globals (n=6 ~ 4x local); DIV-1 evens the classes; GF pushes globals lowest",
		},
	}, []variant{ud, div1, gf})
}

// classRows runs one replication set per variant (in parallel) on the
// non-homogeneous n~U[2..6] workload and fills t with one series per
// variant and one row per task class: locals, then globals with each
// subtask count from 2 to 6.
func classRows(o Options, t *Table, variants []variant) (*Table, error) {
	classes := []int{2, 3, 4, 5, 6}
	t.RowLabels = []string{"local"}
	for _, n := range classes {
		t.RowLabels = append(t.RowLabels, fmt.Sprintf("global-n%d", n))
	}
	results := make([]sim.Result, len(variants))
	err := par.Map(o.Workers, len(variants), func(i int) error {
		cfg := BaselineConfig(o)
		cfg.Spec.Factory = workload.UniformParallel{Min: 2, Max: 6}
		variants[i].mutate(&cfg)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", variants[i].name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		t.Series = append(t.Series, v.name)
	}
	for r := range t.RowLabels {
		var row, errs []float64
		for _, res := range results {
			iv := res.MDLocal
			if r > 0 {
				iv = res.MDGlobalBy[classes[r-1]]
			}
			row = append(row, iv.Mean)
			errs = append(errs, iv.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// serialBase returns the Section 8 configuration: a task graph of five
// serial stages (stages 2 and 4 are fanout-way parallel) with global
// slack scaled by the number of stages.
func serialBase(o Options, fanout int) sim.Config {
	cfg := BaselineConfig(o)
	cfg.Spec.Factory = workload.SerialParallel{Stages: 5, Fanout: fanout}
	cfg.Spec.GlobalSlackMin = 6.25
	cfg.Spec.GlobalSlackMax = 25
	return cfg
}

// Fig15 reproduces Figure 15: the four SSP x PSP combinations of Table 2
// on the serial-parallel workload of Figure 14.
func Fig15(o Options) (*Table, error) {
	return sweep(o, &Table{
		ID: "fig15", Title: "Performance of the SDA strategy combinations (Table 2) on the Figure 14 task graph",
		XLabel: "load", X: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		Notes: []string{
			"at low load globals miss less (larger slack); UD-UD collapses as load grows;",
			"EQF and DIV-1 each help; combined they keep MD_global near MD_local up to load ~0.6",
		},
	}, serialBase(o, 4), atLoad, []variant{
		{"UD-UD", func(c *sim.Config) { c.SSP = sda.SerialUD{}; c.PSP = sda.UD{} }},
		{"UD-DIV1", func(c *sim.Config) { c.SSP = sda.SerialUD{}; c.PSP = sda.MustDiv(1) }},
		{"EQF-UD", func(c *sim.Config) { c.SSP = sda.EQF{}; c.PSP = sda.UD{} }},
		{"EQF-DIV1", func(c *sim.Config) { c.SSP = sda.EQF{}; c.PSP = sda.MustDiv(1) }},
	}, mdPair)
}
