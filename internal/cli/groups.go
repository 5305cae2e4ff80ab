package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Strategy is the -ssp/-psp pair.
type Strategy struct{ ssp, psp string }

// AddStrategy registers -ssp and -psp on fs with the given defaults.
func AddStrategy(fs *flag.FlagSet, ssp sda.SSP, psp sda.PSP) *Strategy {
	s := &Strategy{}
	fs.StringVar(&s.ssp, "ssp", ssp.Name(), "serial strategy: "+strings.Join(sda.SSPNames(), " | "))
	fs.StringVar(&s.psp, "psp", psp.Name(), "parallel strategy: "+strings.Join(sda.PSPNames(), " | "))
	return s
}

// Parse resolves the two strategy names.
func (s *Strategy) Parse() (sda.SSP, sda.PSP, error) {
	ssp, err := sda.ParseSSP(s.ssp)
	if err != nil {
		return nil, nil, fmt.Errorf("flag -ssp: %w", err)
	}
	psp, err := sda.ParsePSP(s.psp)
	if err != nil {
		return nil, nil, fmt.Errorf("flag -psp: %w", err)
	}
	return ssp, psp, nil
}

// Workload is the workload/strategy group: -k, -n, -load, -seed, -ssp
// and -psp, written into Cfg, a copy of the command's default config, to
// whose other fields the command may bind its own flags.
type Workload struct {
	Cfg      sim.Config
	N        int // -n: parallel subtasks per global task
	strategy *Strategy
}

// AddWorkload registers the group on fs with def's values as defaults;
// -n defaults to the width of def's fixed-parallel factory.
func AddWorkload(fs *flag.FlagSet, def sim.Config) *Workload {
	w := &Workload{Cfg: def, strategy: AddStrategy(fs, def.SSP, def.PSP)}
	if f, ok := def.Spec.Factory.(workload.FixedParallel); ok {
		w.N = f.N
	}
	fs.IntVar(&w.Cfg.Spec.K, "k", def.Spec.K, "number of nodes")
	fs.IntVar(&w.N, "n", w.N, "parallel subtasks per global task")
	fs.Float64Var(&w.Cfg.Spec.Load, "load", def.Spec.Load, "normalized load (0 <= load < 1 for stability)")
	fs.Uint64Var(&w.Cfg.Seed, "seed", def.Seed, "master random seed")
	return w
}

// Config returns Cfg with the parsed strategies and a fixed-parallel
// factory of -n subtasks.
func (w *Workload) Config() (sim.Config, error) {
	cfg := w.Cfg
	cfg.Spec.Factory = workload.FixedParallel{N: w.N}
	var err error
	cfg.SSP, cfg.PSP, err = w.strategy.Parse()
	return cfg, err
}

// Fidelity is the -quick/-duration/-reps/-seed group: overrides of
// exp.Options.
type Fidelity struct {
	fs       *flag.FlagSet
	Quick    bool
	duration float64
	reps     int
	seed     uint64
}

// AddFidelity registers the group on fs.
func AddFidelity(fs *flag.FlagSet) *Fidelity {
	f := &Fidelity{fs: fs}
	fs.BoolVar(&f.Quick, "quick", false, "low-fidelity smoke run")
	fs.Float64Var(&f.duration, "duration", 0, "override simulated time per replication")
	fs.IntVar(&f.reps, "reps", 0, "override replications")
	fs.Uint64Var(&f.seed, "seed", 0, "override master seed")
	return f
}

// Options returns the default or -quick options with every override the
// command line set applied.
func (f *Fidelity) Options() exp.Options {
	opts := exp.DefaultOptions()
	if f.Quick {
		opts = exp.QuickOptions()
	}
	if set(f.fs, "duration") {
		opts.Duration = simtime.Duration(f.duration)
	}
	if set(f.fs, "reps") {
		opts.Replications = f.reps
	}
	if set(f.fs, "seed") {
		opts.Seed = f.seed
	}
	return opts
}

// Telemetry is the -obs/-obs-max-spans/-serve/-serve-every/-serve-hold
// group. It also runs the live server: Start binds it, Hook and Attach
// feed it, Export or FinalizeSystem pins it to the run's fold and Close
// holds and stops it. Without -serve every server step is a no-op.
type Telemetry struct {
	Dir      string // -obs: export directory
	maxSpans int
	addr     string
	every    int
	hold     time.Duration
	srv      *serve.Server
	out      io.Writer
}

// AddTelemetry registers the group on fs; obsUsage says what -obs
// exports in this command.
func AddTelemetry(fs *flag.FlagSet, obsUsage string) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.Dir, "obs", "", obsUsage)
	fs.IntVar(&t.maxSpans, "obs-max-spans", 0, "per-replication span retention budget (0 = default 65536); evicted spans are counted, aggregates stay exact")
	fs.StringVar(&t.addr, "serve", "", "serve live telemetry over HTTP on this address (e.g. :8080); implies telemetry")
	fs.IntVar(&t.every, "serve-every", serve.DefaultEvery, "publish a live snapshot every N sampler ticks")
	fs.DurationVar(&t.hold, "serve-hold", 0, "keep the observability server up this long after the run")
	return t
}

// On reports whether -obs or -serve asks for telemetry.
func (t *Telemetry) On() bool { return t.Dir != "" || t.addr != "" }

// Options returns the telemetry options, enabled when On.
func (t *Telemetry) Options() obs.Options {
	return obs.Options{Enabled: t.On(), MaxSpans: t.maxSpans}
}

// Start binds the -serve address, if any, and prints it to out.
func (t *Telemetry) Start(out io.Writer) error {
	if t.addr == "" {
		return nil
	}
	srv, err := serve.Start(t.addr, serve.NewHub(0))
	if err != nil {
		return err
	}
	t.srv, t.out = srv, out
	fmt.Fprintf(out, "live telemetry on http://%s (endpoints: /metrics /progress /spans /blame)\n", srv.Addr())
	return nil
}

// Attach publishes tel's snapshots every -serve-every sampler ticks into
// the live view of fold, the merge tel's replication folds into.
func (t *Telemetry) Attach(tel *obs.Telemetry, fold *obs.Merged, info serve.RunInfo) {
	if t.srv != nil {
		t.srv.Hub().Attach(tel, fold, info, t.every)
	}
}

// Hook makes every replication of cfg attach to the run's fold when it
// starts and publish its final state when it ends (both safe under
// Workers > 1), and returns the label the run is served under.
func (t *Telemetry) Hook(cfg *sim.Config) serve.RunInfo {
	info := serve.RunInfo{Label: cfg.Name(), Replications: cfg.Replications, Horizon: float64(cfg.Warmup + cfg.Duration)}
	if t.srv != nil {
		hub := t.srv.Hub()
		cfg.OnReplication = func(sys *sim.System) { t.Attach(sys.Telemetry(), sys.Fold(), info) }
		cfg.OnReplicationDone = func(sys *sim.System) {
			hub.Publish(sys.Telemetry(), sys.Fold(), info, float64(sys.Horizon()), true)
		}
	}
	return info
}

// Export ends a run whose telemetry is the merge m. It pins the served
// artifacts to m, so /metrics, /summary and /blame match the export byte
// for byte; when -obs or -serve is set it prints m's summary; and with
// -obs it writes m's bundle into the -obs directory (obs.ExportBundle,
// with the sampler s of a run that built one system, or nil) and lists
// its files.
func (t *Telemetry) Export(w io.Writer, m *obs.Merged, s *obs.Sampler, info serve.RunInfo) error {
	if t.srv != nil {
		t.srv.Hub().Finalize(m, info)
	}
	if !t.On() {
		return nil
	}
	fmt.Fprintf(w, "\n%s", m.Summary())
	if t.Dir == "" {
		return nil
	}
	paths, err := obs.ExportBundle(t.Dir, m, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "telemetry exported: %s\n", strings.Join(paths, " "))
	return nil
}

// FinalizeSystem ends a run that builds one system instead of calling
// sim.Run: it hands the finished telemetry tel to fold, the merge Attach
// was given, and pins the served artifacts to it. It does nothing when
// telemetry is off (tel nil).
func (t *Telemetry) FinalizeSystem(tel *obs.Telemetry, fold *obs.Merged, info serve.RunInfo) error {
	if tel == nil {
		return nil
	}
	if err := tel.MergeInto(fold); err != nil {
		return err
	}
	if t.srv != nil {
		t.srv.Hub().Finalize(fold, info)
	}
	return nil
}

// Close holds the server up for -serve-hold, then stops it.
func (t *Telemetry) Close() {
	if t.srv == nil {
		return
	}
	if t.hold > 0 {
		fmt.Fprintf(t.out, "holding observability server for %v\n", t.hold)
		time.Sleep(t.hold)
	}
	t.srv.Close()
	t.srv = nil
}
