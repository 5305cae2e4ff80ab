package exp

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/workload"
)

// loadSweepDefault is the load axis used by the paper's load plots. The
// paper stresses intermediate-to-high loads; a stable system needs
// load < 1.
var loadSweepDefault = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// variant is one curve pair (MD_local, MD_global) in a load sweep.
type variant struct {
	name   string
	mutate func(*sim.Config)
}

// baseline returns the Table 1 configuration at the given fidelity.
func baseline(o Options) sim.Config {
	cfg := sim.Default()
	o.apply(&cfg)
	return cfg
}

// BaselineConfig exposes the Table 1 baseline cell at the given fidelity
// for callers outside the figure pipeline — cmd/sdaexp's -obs mode runs
// it with telemetry attached to export the observed baseline.
func BaselineConfig(o Options) sim.Config {
	return baseline(o)
}

// loadSweep runs each variant across the load axis, producing the series
// MD_local(v) and MD_global(v) for every variant v, plus MD_subtask for
// the first variant when withSubtask is set (Figure 5 plots it). The
// cells are independent simulations and run in parallel; results are
// deterministic because every cell's seed is fixed by the options.
func loadSweep(o Options, loads []float64, base sim.Config, variants []variant, withSubtask bool) (*Table, error) {
	t := &Table{XLabel: "load", X: loads}
	for i, v := range variants {
		t.Series = append(t.Series, "MD_local("+v.name+")", "MD_global("+v.name+")")
		if withSubtask && i == 0 {
			t.Series = append(t.Series, "MD_subtask("+v.name+")")
		}
	}
	nv := len(variants)
	results := make([]sim.Result, len(loads)*nv)
	err := par.Map(o.Workers, len(results), func(i int) error {
		li, vi := i/nv, i%nv
		cfg := base
		cfg.Spec.Load = loads[li]
		variants[vi].mutate(&cfg)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s at load %v: %w", variants[vi].name, loads[li], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li := range loads {
		var row, errs []float64
		for vi := range variants {
			res := results[li*nv+vi]
			row = append(row, res.MDLocal.Mean, res.MDGlobal.Mean)
			errs = append(errs, res.MDLocal.HalfWidth, res.MDGlobal.HalfWidth)
			if withSubtask && vi == 0 {
				row = append(row, res.MDSubtask.Mean)
				errs = append(errs, res.MDSubtask.HalfWidth)
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
	t, err := loadSweep(o, loadSweepDefault, baseline(o),
		[]variant{{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }}}, true)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig5", "Performance of UD in baseline experiment"
	t.Notes = append(t.Notes,
		"paper anchors at load 0.5: MD_local ~ 8.9%, MD_subtask ~ 7.1%, MD_global ~ 25%")
	return t, nil
}

// Fig6 reproduces Figure 6: UD vs DIV-1 vs DIV-2 across load.
func Fig6(o Options) (*Table, error) {
	t, err := loadSweep(o, loadSweepDefault, baseline(o), []variant{
		{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }},
		{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }},
		{"DIV-2", func(c *sim.Config) { c.PSP = sda.MustDiv(2) }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig6", "Performance of UD and DIV-x in baseline experiment"
	t.Notes = append(t.Notes,
		"paper anchors at load 0.5: DIV-1 MD_local ~ 11.7%, MD_global ~ 13%; DIV-2 ~ DIV-1")
	return t, nil
}

// Fig7 reproduces Figure 7: UD vs DIV-1 vs GF across load.
func Fig7(o Options) (*Table, error) {
	t, err := loadSweep(o, loadSweepDefault, baseline(o), []variant{
		{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }},
		{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }},
		{"GF", func(c *sim.Config) { c.PSP = sda.GF{} }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig7", "Performance of UD, DIV-1 and GF in baseline experiment"
	t.Notes = append(t.Notes,
		"GF matches DIV-1 on locals while missing significantly fewer globals, especially under high load")
	return t, nil
}

// Fig9 reproduces Figure 9: MD under DIV-x as a function of x, for global
// tasks with n = 2, 4 and 6 parallel subtasks, at the baseline load.
func Fig9(o Options) (*Table, error) {
	xs := []float64{0.25, 0.5, 1, 2, 3, 4, 6, 8}
	fanouts := []int{2, 4, 6}
	t := &Table{
		ID:     "fig9",
		Title:  "MD under DIV-x as a function of x for n = 2, 4, 6",
		XLabel: "x",
		X:      xs,
		Notes: []string{
			"curves flatten as x grows; they stabilise at smaller x for larger n; x = 1 is adequate",
		},
	}
	for _, n := range fanouts {
		t.Series = append(t.Series,
			fmt.Sprintf("MD_local(n=%d)", n), fmt.Sprintf("MD_global(n=%d)", n))
	}
	nf := len(fanouts)
	results := make([]sim.Result, len(xs)*nf)
	err := par.Map(o.Workers, len(results), func(i int) error {
		xi, fi := i/nf, i%nf
		cfg := baseline(o)
		cfg.Spec.Factory = workload.FixedParallel{N: fanouts[fi]}
		cfg.PSP = sda.MustDiv(xs[xi])
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("DIV-%g n=%d: %w", xs[xi], fanouts[fi], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for xi := range xs {
		var row, errs []float64
		for fi := range fanouts {
			res := results[xi*nf+fi]
			row = append(row, res.MDLocal.Mean, res.MDGlobal.Mean)
			errs = append(errs, res.MDLocal.HalfWidth, res.MDGlobal.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// fracLocalSweep is shared by Figures 10(a) and 10(b).
func fracLocalSweep(o Options, id, title string, challenger variant) (*Table, error) {
	fracs := []float64{0, 0.2, 0.4, 0.6, 0.75, 0.9}
	t := &Table{
		ID:     id,
		Title:  title,
		XLabel: "frac_local",
		X:      fracs,
		Series: []string{
			"MD_local(UD)", "MD_global(UD)",
			"MD_local(" + challenger.name + ")", "MD_global(" + challenger.name + ")",
		},
		Notes: []string{
			"UD's rates rise mildly with frac_local; the challenger's fall — it is most effective with a large local population",
		},
	}
	variants := []variant{
		{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }},
		challenger,
	}
	results := make([]sim.Result, len(fracs)*2)
	err := par.Map(o.Workers, len(results), func(i int) error {
		fi, vi := i/2, i%2
		cfg := baseline(o)
		cfg.Spec.FracLocal = fracs[fi]
		variants[vi].mutate(&cfg)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s at frac %v: %w", variants[vi].name, fracs[fi], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi := range fracs {
		var row, errs []float64
		for vi := range variants {
			res := results[fi*2+vi]
			row = append(row, res.MDLocal.Mean, res.MDGlobal.Mean)
			errs = append(errs, res.MDLocal.HalfWidth, res.MDGlobal.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// Fig10a reproduces Figure 10(a): DIV-1 as a function of frac_local.
func Fig10a(o Options) (*Table, error) {
	return fracLocalSweep(o, "fig10a", "DIV-1 as a function of frac_local",
		variant{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }})
}

// Fig10b reproduces Figure 10(b): GF as a function of frac_local. At
// frac_local = 0 GF degenerates to UD (all deadlines shifted equally).
func Fig10b(o Options) (*Table, error) {
	t, err := fracLocalSweep(o, "fig10b", "GF as a function of frac_local",
		variant{"GF", func(c *sim.Config) { c.PSP = sda.GF{} }})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "at frac_local = 0, GF performs exactly like UD")
	return t, nil
}

// Fig11 reproduces Figure 11: UD and DIV-1 with process-manager abortion.
func Fig11(o Options) (*Table, error) {
	base := baseline(o)
	base.Abort = sim.AbortProcessManager
	t, err := loadSweep(o, loadSweepDefault, base, []variant{
		{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }},
		{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }},
		{"GF", func(c *sim.Config) { c.PSP = sda.GF{} }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig11", "UD and DIV-1 with process-manager abortion"
	t.Notes = append(t.Notes,
		"paper anchors at load 0.5: MD_global(UD) ~ 15%, MD_global(DIV-1) ~ 7.8%",
		"the paper omits GF's curves for legibility (similar to DIV-1); they are included here")
	return t, nil
}

// LocalAbort reproduces the Section 7.3 discussion (results "not shown" in
// the paper): DIV-x with local-scheduler aborts across x, versus the same
// strategy with process-manager aborts, in the paper's "moderate to tight"
// environment (elevated load, small slack). Both policies reclaim capacity
// from tardy work, but local aborts kill subtasks that still had time and
// burn their slack in failed trials.
func LocalAbort(o Options) (*Table, error) {
	xs := []float64{0.5, 1, 2, 4, 8}
	t := &Table{
		ID:     "localabort",
		Title:  "DIV-x: local-scheduler vs process-manager abortion (load 0.6, slack [0.5, 2])",
		XLabel: "x",
		X:      xs,
		Series: []string{
			"MD_local(pm-abort)", "MD_global(pm-abort)",
			"MD_local(local-abort)", "MD_global(local-abort)",
		},
		Notes: []string{
			"local aborts waste slack on spurious kills: MD_global stays well above the process-manager-abort level",
		},
	}
	modes := []sim.AbortMode{sim.AbortProcessManager, sim.AbortLocalScheduler}
	results := make([]sim.Result, len(xs)*len(modes))
	err := par.Map(o.Workers, len(results), func(i int) error {
		xi, mi := i/len(modes), i%len(modes)
		cfg := baseline(o)
		cfg.Spec.Load = 0.6
		cfg.Spec.SlackMin, cfg.Spec.SlackMax = 0.5, 2.0
		cfg.PSP = sda.MustDiv(xs[xi])
		cfg.Abort = modes[mi]
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("DIV-%g %v: %w", xs[xi], modes[mi], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for xi := range xs {
		var row, errs []float64
		for mi := range modes {
			res := results[xi*len(modes)+mi]
			row = append(row, res.MDLocal.Mean, res.MDGlobal.Mean)
			errs = append(errs, res.MDLocal.HalfWidth, res.MDGlobal.HalfWidth)
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: per-class miss rates (locals and globals
// with n = 2..6 subtasks) under UD, DIV-1 and GF, for the non-homogeneous
// workload of Section 7.4.
func Fig12(o Options) (*Table, error) {
	classes := []int{2, 3, 4, 5, 6}
	t := &Table{
		ID:        "fig12",
		Title:     "MD of task classes under the PSP strategies (n uniform on [2..6])",
		XLabel:    "class",
		RowLabels: []string{"local"},
		Series:    []string{"UD", "DIV-1", "GF"},
		Notes: []string{
			"UD penalises large globals (n=6 ~ 4x local); DIV-1 evens the classes; GF pushes globals lowest",
		},
	}
	err := classRows(o, t, classes, []variant{
		{"UD", func(c *sim.Config) { c.PSP = sda.UD{} }},
		{"DIV-1", func(c *sim.Config) { c.PSP = sda.MustDiv(1) }},
		{"GF", func(c *sim.Config) { c.PSP = sda.GF{} }},
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// classRows runs one replication set per strategy (in parallel) on the
// non-homogeneous n~U[2..6] workload and fills t with one row per task
// class: locals, then globals with each subtask count in classes.
func classRows(o Options, t *Table, classes []int, strategies []variant) error {
	for _, n := range classes {
		t.RowLabels = append(t.RowLabels, fmt.Sprintf("global-n%d", n))
	}
	cols := make([][]float64, len(strategies))
	colErrs := make([][]float64, len(strategies))
	err := par.Map(o.Workers, len(strategies), func(i int) error {
		v := strategies[i]
		cfg := baseline(o)
		cfg.Spec.Factory = workload.UniformParallel{Min: 2, Max: 6}
		v.mutate(&cfg)
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		cols[i] = append(cols[i], res.MDLocal.Mean)
		colErrs[i] = append(colErrs[i], res.MDLocal.HalfWidth)
		for _, n := range classes {
			iv := res.MDGlobalBy[n]
			cols[i] = append(cols[i], iv.Mean)
			colErrs[i] = append(colErrs[i], iv.HalfWidth)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for r := range t.RowLabels {
		row := make([]float64, len(strategies))
		errs := make([]float64, len(strategies))
		for cIdx := range strategies {
			row[cIdx] = cols[cIdx][r]
			errs[cIdx] = colErrs[cIdx][r]
		}
		t.Y = append(t.Y, row)
		t.Err = append(t.Err, errs)
	}
	return nil
}

// fig15Base returns the Section 8 configuration: the Figure 14 task graph
// (five serial stages; stages 2 and 4 are 4-way parallel) with global
// slack scaled by the number of stages.
func fig15Base(o Options) sim.Config {
	cfg := baseline(o)
	cfg.Spec.Factory = workload.SerialParallel{Stages: 5, Fanout: 4}
	cfg.Spec.GlobalSlackMin = 6.25
	cfg.Spec.GlobalSlackMax = 25
	return cfg
}

// Fig15 reproduces Figure 15: the four SSP x PSP combinations of Table 2
// on the serial-parallel workload.
func Fig15(o Options) (*Table, error) {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	t, err := loadSweep(o, loads, fig15Base(o), []variant{
		{"UD-UD", func(c *sim.Config) { c.SSP = sda.SerialUD{}; c.PSP = sda.UD{} }},
		{"UD-DIV1", func(c *sim.Config) { c.SSP = sda.SerialUD{}; c.PSP = sda.MustDiv(1) }},
		{"EQF-UD", func(c *sim.Config) { c.SSP = sda.EQF{}; c.PSP = sda.UD{} }},
		{"EQF-DIV1", func(c *sim.Config) { c.SSP = sda.EQF{}; c.PSP = sda.MustDiv(1) }},
	}, false)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig15", "Performance of the SDA strategy combinations (Table 2) on the Figure 14 task graph"
	t.Notes = append(t.Notes,
		"at low load globals miss less (larger slack); UD-UD collapses as load grows;",
		"EQF and DIV-1 each help; combined they keep MD_global near MD_local up to load ~0.6")
	return t, nil
}
