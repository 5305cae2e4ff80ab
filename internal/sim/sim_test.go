package sim

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// quickCfg returns a baseline config small enough for unit tests but large
// enough for stable statistics.
func quickCfg() Config {
	cfg := Default()
	cfg.Duration = 15000
	cfg.Warmup = 500
	cfg.Replications = 2
	cfg.Seed = 7
	return cfg
}

func TestRunBaselineSanity(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Locals == 0 || res.Globals == 0 {
		t.Fatalf("locals %d globals %d, want both > 0", res.Locals, res.Globals)
	}
	if math.Abs(res.Utilization.Mean-0.5) > 0.05 {
		t.Errorf("utilization %v, want ~0.5 (the configured load)", res.Utilization)
	}
	for _, iv := range []struct {
		name string
		v    float64
	}{
		{"MDLocal", res.MDLocal.Mean},
		{"MDSubtask", res.MDSubtask.Mean},
		{"MDGlobal", res.MDGlobal.Mean},
		{"MissedWork", res.MissedWork.Mean},
	} {
		if iv.v < 0 || iv.v > 1 {
			t.Errorf("%s = %v outside [0,1]", iv.name, iv.v)
		}
	}
	// The headline phenomenon: under UD a 4-subtask global misses far more
	// often than a local.
	if res.MDGlobal.Mean < 1.5*res.MDLocal.Mean {
		t.Errorf("MD_global %v should dwarf MD_local %v under UD",
			res.MDGlobal.Mean, res.MDLocal.Mean)
	}
	// Subtasks have slightly more slack than locals (Eq. 3).
	if res.MDSubtask.Mean > res.MDLocal.Mean+0.02 {
		t.Errorf("MD_subtask %v should not exceed MD_local %v by much",
			res.MDSubtask.Mean, res.MDLocal.Mean)
	}
}

func TestDivReducesGlobalMisses(t *testing.T) {
	base := quickCfg()
	ud, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	div := base
	div.PSP = sda.MustDiv(1)
	dres, err := Run(div)
	if err != nil {
		t.Fatal(err)
	}
	if !(dres.MDGlobal.Mean < ud.MDGlobal.Mean) {
		t.Errorf("DIV-1 MD_global %v should beat UD %v", dres.MDGlobal.Mean, ud.MDGlobal.Mean)
	}
	if !(dres.MDLocal.Mean > ud.MDLocal.Mean) {
		t.Errorf("DIV-1 MD_local %v should exceed UD %v (locals pay)",
			dres.MDLocal.Mean, ud.MDLocal.Mean)
	}
}

func TestGFBeatsDivOnGlobals(t *testing.T) {
	base := quickCfg()
	base.Spec.Load = 0.7 // the GF advantage grows with load
	div := base
	div.PSP = sda.MustDiv(1)
	dres, err := Run(div)
	if err != nil {
		t.Fatal(err)
	}
	gf := base
	gf.PSP = sda.GF{}
	gres, err := Run(gf)
	if err != nil {
		t.Fatal(err)
	}
	if !(gres.MDGlobal.Mean < dres.MDGlobal.Mean) {
		t.Errorf("GF MD_global %v should beat DIV-1 %v at high load",
			gres.MDGlobal.Mean, dres.MDGlobal.Mean)
	}
}

func TestPMAbortReducesMissRates(t *testing.T) {
	base := quickCfg()
	base.Spec.Load = 0.7
	noAbort, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ab := base
	ab.Abort = AbortProcessManager
	abres, err := Run(ab)
	if err != nil {
		t.Fatal(err)
	}
	if !(abres.MDLocal.Mean < noAbort.MDLocal.Mean) {
		t.Errorf("abortion MD_local %v should beat no-abortion %v",
			abres.MDLocal.Mean, noAbort.MDLocal.Mean)
	}
	if !(abres.MDGlobal.Mean < noAbort.MDGlobal.Mean) {
		t.Errorf("abortion MD_global %v should beat no-abortion %v",
			abres.MDGlobal.Mean, noAbort.MDGlobal.Mean)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 5000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MDLocal.Mean != b.MDLocal.Mean || a.MDGlobal.Mean != b.MDGlobal.Mean ||
		a.Locals != b.Locals || a.Globals != b.Globals {
		t.Error("same config+seed produced different results")
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Locals == c.Locals && a.MDLocal.Mean == c.MDLocal.Mean {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestReplicationsFeedIntervals(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 5000
	cfg.Replications = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reps) != 4 {
		t.Fatalf("reps = %d, want 4", len(res.Reps))
	}
	if res.MDLocal.N != 4 {
		t.Errorf("interval N = %d, want 4", res.MDLocal.N)
	}
	if res.MDLocal.HalfWidth <= 0 {
		t.Error("multi-replication interval should have positive half-width")
	}
	// Replications differ (different derived seeds).
	if res.Reps[0].MDLocal == res.Reps[1].MDLocal && res.Reps[0].Locals == res.Reps[1].Locals {
		t.Error("replications look identical")
	}
}

func TestPerClassStats(t *testing.T) {
	cfg := quickCfg()
	cfg.Spec.Factory = workload.UniformParallel{Min: 2, Max: 6}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 6; n++ {
		if _, ok := res.MDGlobalBy[n]; !ok {
			t.Errorf("missing class n=%d", n)
		}
	}
	// Under UD, bigger globals miss more (Fig. 12): compare the extremes.
	if !(res.MDGlobalBy[6].Mean > res.MDGlobalBy[2].Mean) {
		t.Errorf("MD(n=6) %v should exceed MD(n=2) %v under UD",
			res.MDGlobalBy[6].Mean, res.MDGlobalBy[2].Mean)
	}
}

func TestLocalAbortMode(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 5000
	cfg.Abort = AbortLocalScheduler
	cfg.PSP = sda.MustDiv(1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals == 0 {
		t.Fatal("no globals observed")
	}
	// Local aborts should hurt DIV-x globals relative to no abortion
	// (Section 7.3): at minimum the mode must run and produce sane output.
	if res.MDGlobal.Mean < 0 || res.MDGlobal.Mean > 1 {
		t.Errorf("MD_global = %v", res.MDGlobal.Mean)
	}
}

func TestFIFOAblationWorse(t *testing.T) {
	base := quickCfg()
	base.Duration = 8000
	edf, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fifo := base
	fifo.Policy = node.FIFO{}
	fres, err := Run(fifo)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO ignores deadlines; overall misses should not beat EDF.
	edfTotal := edf.MDLocal.Mean*0.75 + edf.MDGlobal.Mean*0.25
	fifoTotal := fres.MDLocal.Mean*0.75 + fres.MDGlobal.Mean*0.25
	if fifoTotal < edfTotal-0.02 {
		t.Errorf("FIFO (%v) unexpectedly beats EDF (%v)", fifoTotal, edfTotal)
	}
}

func TestConfigValidation(t *testing.T) {
	tooMany := int64(3_000_000_000) // a 32-bit int wraps it negative, also invalid
	bad := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Replications = -2 },
		func(c *Config) { c.Spec.K = 0 },
		func(c *Config) { c.Abort = AbortMode(99) },
		func(c *Config) { c.Duration = simtime.Duration(math.NaN()) },
		func(c *Config) { c.Duration = simtime.Duration(math.Inf(1)) },
		func(c *Config) { c.Warmup = simtime.Duration(math.NaN()) },
		func(c *Config) { c.Warmup = simtime.Duration(math.Inf(1)) },
		func(c *Config) { c.Spec.K = int(tooMany) },
		func(c *Config) { c.Spec.K = 1 << 10; c.Servers = 1<<10 + 1 },
		func(c *Config) {
			c.Spec.K = 2
			c.NodeServers = []int{MaxServers, 1}
		},
		// Past MaxTasks expected tasks, or NaN.
		func(c *Config) { c.Spec.Load = 1e300 },
		func(c *Config) { c.Duration = 1e300 },
		func(c *Config) { c.Warmup = 1e300 },
		func(c *Config) { c.Spec.K = 1_000_000; c.Duration = 1_000_000 },
		func(c *Config) { c.Spec.Load = math.Inf(1) },
		func(c *Config) { c.Spec.MeanLocalExec = 1e-300 },
		// An enabled sampler: non-finite cadence, past MaxTasks ticks, or
		// a ring past MaxSamples.
		func(c *Config) { c.Obs = obs.Options{Enabled: true, SampleEvery: simtime.Duration(math.NaN())} },
		func(c *Config) { c.Obs = obs.Options{Enabled: true, SampleEvery: simtime.Duration(math.Inf(1))} },
		func(c *Config) { c.Obs = obs.Options{Enabled: true, SampleEvery: 1e-300} },
		func(c *Config) { c.Obs = obs.Options{Enabled: true, SampleEvery: 1e-4} },
		func(c *Config) { c.Obs = obs.Options{Enabled: true, MaxSamples: MaxSamples + 1} },
	}
	for i, mut := range bad {
		cfg := Default()
		mut(&cfg)
		if cfg.Replications == -2 {
			// normalized() only defaults zero; negatives must fail.
			if err := cfg.Validate(); err == nil {
				t.Errorf("case %d: invalid config accepted", i)
			}
			continue
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// A disabled sampler is not checked, and the default cadence and a
	// ring at the cap are fine.
	for _, o := range []obs.Options{
		{SampleEvery: simtime.Duration(math.NaN()), MaxSamples: MaxSamples + 1},
		{Enabled: true},
		{Enabled: true, SampleEvery: -1, MaxSamples: MaxSamples},
	} {
		cfg := Default()
		cfg.Obs = o
		if err := cfg.Validate(); err != nil {
			t.Errorf("obs %+v: %v", o, err)
		}
	}
}

func TestConfigName(t *testing.T) {
	cfg := Default()
	if cfg.Name() != "UD-UD" {
		t.Errorf("Name = %q, want UD-UD", cfg.Name())
	}
	cfg.SSP = sda.EQF{}
	cfg.PSP = sda.MustDiv(1)
	if cfg.Name() != "EQF-DIV-1" {
		t.Errorf("Name = %q, want EQF-DIV-1", cfg.Name())
	}
}

func TestZeroLoadGivesErrNoTasks(t *testing.T) {
	cfg := Default()
	cfg.Duration = 100
	cfg.Spec.Load = 0.000001
	cfg.Spec.FracLocal = 0.75
	// With a microscopic load and tiny horizon the system may see nothing.
	_, err := RunOne(cfg, 3)
	if err != nil && !errors.Is(err, ErrNoTasks) {
		t.Errorf("err = %v, want nil or ErrNoTasks", err)
	}
}

func TestNormalizedDefaults(t *testing.T) {
	var cfg Config
	cfg.Spec = workload.Baseline(workload.FixedParallel{N: 4})
	cfg.Duration = 1000
	cfg.Seed = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero-strategy config should normalise: %v", err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Name() != "UD-UD" {
		t.Errorf("defaulted name = %q", res.Config.Name())
	}
	if len(res.Reps) != 1 {
		t.Errorf("defaulted replications = %d, want 1", len(res.Reps))
	}
}

func TestAbortModeString(t *testing.T) {
	if AbortNone.String() != "none" ||
		AbortProcessManager.String() != "process-manager" ||
		AbortLocalScheduler.String() != "local-scheduler" {
		t.Error("abort mode names wrong")
	}
	if AbortMode(9).String() != "AbortMode(9)" {
		t.Error("unknown abort mode name")
	}
}

func TestSerialParallelWorkload(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 8000
	cfg.Spec.Factory = workload.SerialParallel{Stages: 5, Fanout: 4}
	cfg.Spec.GlobalSlackMin, cfg.Spec.GlobalSlackMax = 6.25, 25
	cfg.SSP = sda.EQF{}
	cfg.PSP = sda.MustDiv(1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals == 0 {
		t.Fatal("no globals")
	}
	if math.Abs(res.Utilization.Mean-0.5) > 0.06 {
		t.Errorf("utilization %v, want ~0.5", res.Utilization.Mean)
	}
}

func TestMultiServerConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 5000
	cfg.Servers = 2
	// Same task load over double capacity: effective per-server load 0.25.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization.Mean-0.25) > 0.04 {
		t.Errorf("utilization = %v, want ~0.25 (load halved per server)", res.Utilization.Mean)
	}
	single := quickCfg()
	single.Duration = 5000
	sres, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MDLocal.Mean < sres.MDLocal.Mean) {
		t.Errorf("doubling servers should reduce MD_local: %v vs %v",
			res.MDLocal.Mean, sres.MDLocal.Mean)
	}
}

func TestMultiServerValidation(t *testing.T) {
	cfg := Default()
	cfg.Servers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative servers accepted")
	}
	cfg = Default()
	cfg.Servers = 2
	cfg.Preemptive = true
	if err := cfg.Validate(); err == nil {
		t.Error("preemptive multi-server accepted")
	}
}

// TestReplayTraceMatchesLiveRun is the differential over the trace text
// format: for each tree factory, at warmup 0 and 500, the arrivals a
// live run would draw go through WriteTrace and ReadTrace, and replaying
// them yields the live run's RepResult field for field — counts, miss
// rates, response times, utilization, queue length and event count. The
// last case draws non-exponential local and subtask service times and
// noisy pex estimates.
func TestReplayTraceMatchesLiveRun(t *testing.T) {
	type replayCase struct {
		f        workload.Factory
		local    workload.Dist
		subtask  workload.Dist
		estimate workload.Estimator
	}
	cases := []replayCase{
		{f: workload.FixedParallel{N: 4}},
		{f: workload.UniformParallel{Min: 2, Max: 6}},
		{f: workload.SerialParallel{Stages: 3, Fanout: 3}},
		{f: workload.NetworkPipeline{Stages: 3, Fanout: 3, NetNodes: 2, HopMean: 0.5}},
		{f: workload.SerialParallel{Stages: 3, Fanout: 3}, local: workload.HyperExp{CV2: 4},
			subtask: workload.ErlangK{K: 3}, estimate: workload.Noisy{Factor: 2}},
	}
	for _, c := range cases {
		f := c.f
		for _, warmup := range []simtime.Duration{0, 500} {
			cfg := quickCfg()
			cfg.Spec = workload.Baseline(f)
			cfg.Spec.K = 8
			cfg.Spec.LocalService = c.local
			cfg.Spec.SubtaskService = c.subtask
			cfg.Spec.Estimator = c.estimate
			cfg.Duration = 2000
			cfg.Warmup = warmup
			cfg.Replications = 1
			const seed = 555
			drawn, err := workload.Synthesize(cfg.Spec, seed, simtime.Time(cfg.Warmup+cfg.Duration))
			if err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			if err := workload.WriteTrace(&text, drawn); err != nil {
				t.Fatal(err)
			}
			arrivals, err := workload.ReadTrace(&text)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := ReplayTrace(cfg, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			live, err := RunOne(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed, live) {
				t.Errorf("%s (%v, %v, %v), warmup %v: replay differs from the live run:\nreplay %+v\nlive   %+v",
					f.Name(), c.local, c.subtask, c.estimate, warmup, replayed, live)
			}
		}
	}
}

func TestReplayTraceValidates(t *testing.T) {
	cfg := Default()
	cfg.Duration = 0
	if _, err := ReplayTrace(cfg, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestReplayTraceCapsSamplerTicks: a replay is measured up to its last
// arrival, so one far arrival stretches the sampler's horizon past the
// tick cap that Validate checked on the configured one. The replay must
// fail with ErrSampler at once instead of ticking 2e11 times; it once
// ran until killed.
func TestReplayTraceCapsSamplerTicks(t *testing.T) {
	arrivals, err := workload.ReadTrace(strings.NewReader("1e13 1.00000001e13 _@1:1\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Replications = 1
	cfg.Obs = obs.Options{Enabled: true}
	done := make(chan error, 1)
	go func() {
		_, err := ReplayTrace(cfg, arrivals)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrSampler) {
			t.Fatalf("ReplayTrace = %v, want an ErrSampler error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("ReplayTrace still running after 1s")
	}
	// Without telemetry the same replay has no sampler to cap, and the
	// synthetic rates' task cap does not apply to a trace.
	cfg.Obs = obs.Options{}
	cfg.Spec.Load = 1e300
	if _, err := ReplayTrace(cfg, arrivals); err != nil {
		t.Fatalf("ReplayTrace without telemetry: %v", err)
	}
}
