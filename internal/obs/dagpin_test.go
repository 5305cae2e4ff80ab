package obs_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestDagRunExportPins pins everything a precedence-DAG run exports with
// telemetry on: every file of its bundle, the span tail taken at the
// first sampler tick that finds a DAG root span open (so the root's
// depth and width are read while the run is in flight), and the analytic
// oracle's checks and violations over the same run. It covers fork-join
// and conditional DAGs at load 0.8 under each abort mode.
func TestDagRunExportPins(t *testing.T) {
	factories := []struct {
		name string
		f    workload.DagFactory
	}{
		{"forkjoin", workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3}},
		{"cond", workload.ConditionalDag{Stages: 5, Branches: 3, Width: 2}},
	}
	aborts := []sim.AbortMode{sim.AbortNone, sim.AbortProcessManager, sim.AbortLocalScheduler}
	want := map[string]string{
		"forkjoin/none":            "8af4e324b4cfe411",
		"forkjoin/process-manager": "9ba669790804941f",
		"forkjoin/local-scheduler": "bcbc7a2c42f587a9",
		"cond/none":                "d583dfedc3a8fd38",
		"cond/process-manager":     "de9bf495a63d0905",
		"cond/local-scheduler":     "f73b92ecfbc18d2a",
	}
	for _, fc := range factories {
		for _, ab := range aborts {
			name := fc.name + "/" + ab.String()
			t.Run(name, func(t *testing.T) {
				cfg := sim.Default()
				cfg.Spec.Factory = nil
				cfg.Spec.DagFactory = fc.f
				cfg.Spec.Load = 0.8
				cfg.SSP = sda.EQF{}
				cfg.PSP = sda.MustDiv(1)
				cfg.Abort = ab
				cfg.Duration = 4000
				cfg.Warmup = 100
				cfg.Replications = 1
				cfg.Obs = obs.Options{Enabled: true, SampleEvery: 20, MaxSpans: 4096}
				got := dagRunDigest(t, cfg)
				if got != want[name] {
					t.Errorf("DAG run digest = %s, want %s", got, want[name])
				}
			})
		}
	}
}

// dagRunDigest runs one replication of cfg with an oracle attached and
// returns a digest of its bundle, its in-flight span tail and the
// oracle's verdicts.
func dagRunDigest(t *testing.T, cfg sim.Config) string {
	t.Helper()
	oracle := analysis.NewOracle()
	cfg.Recorder = oracle
	sys, err := sim.NewSystem(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	tel := sys.Telemetry()
	var tail []obs.Record
	tel.Sampler().SetOnTick(func(simtime.Time) {
		if tail != nil {
			return
		}
		recs := tel.SpansTail(32)
		for _, r := range recs {
			if r.Kind == "global" && r.End == nil && r.Depth > 0 && r.Width > 0 {
				tail = recs
				return
			}
		}
	})
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	if tail == nil {
		t.Fatal("no sampler tick found a DAG root span open")
	}
	if oracle.Checks() == 0 {
		t.Fatal("oracle checked nothing")
	}

	h := sha256.New()
	for _, r := range tail {
		if err := obs.WriteRecord(h, r); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(h, "oracle %d %d %d %q\n", oracle.Checks(), oracle.Skipped(), oracle.ViolationCount(), oracle.Violations())

	m := fold(t, tel)
	paths, err := obs.ExportBundle(t.TempDir(), m, tel.Sampler())
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "file %s %d\n", filepath.Base(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
