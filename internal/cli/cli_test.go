package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// testFlags registers one flag of every kind the rule distinguishes.
func testFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("n", 4, "")
	fs.Int("width", 0, "")
	fs.Float64("warmup", 1000, "")
	fs.Float64("rate", 0.5, "")
	fs.Duration("hold", 0, "")
	fs.Uint64("seed", 1, "")
	fs.String("name", "", "")
	fs.Int("reps", 1, "")
	return fs
}

func TestRule(t *testing.T) {
	rule := Rule{ZeroOK: []string{"warmup"}, Max: map[string]float64{"width": 100}}
	for _, tc := range []struct {
		args    []string
		badFlag string // "" when the args are valid
	}{
		{nil, ""}, // omitted flags keep their defaults, even zero ones
		{[]string{"-n", "3", "-rate", "0.25", "-hold", "2s", "-width", "100"}, ""},
		{[]string{"-warmup", "0"}, ""},
		{[]string{"-seed", "0"}, ""},
		{[]string{"-name", ""}, ""},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "-1"}, "-n"},
		{[]string{"-warmup", "-1"}, "-warmup"},
		{[]string{"-rate", "nan"}, "-rate"},
		{[]string{"-rate", "inf"}, "-rate"},
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-hold", "0s"}, "-hold"},
		{[]string{"-hold", "-1s"}, "-hold"},
		{[]string{"-width", "101"}, "-width"},
		{[]string{"-reps", "100000000"}, "-reps"},
		{[]string{"-n", "1", "-rate", "-2"}, "-rate"},
	} {
		err := Parse(testFlags(), tc.args, rule)
		switch {
		case tc.badFlag == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.badFlag != "" && (err == nil || !strings.Contains(err.Error(), "flag "+tc.badFlag+" ")):
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.badFlag)
		}
	}
}

// TestFidelity: an omitted override keeps the default, and an explicit
// -seed 0 is a seed, not "no override".
func TestFidelity(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want exp.Options
	}{
		{nil, exp.DefaultOptions()},
		{[]string{"-quick"}, exp.QuickOptions()},
		{[]string{"-quick", "-duration", "800", "-reps", "3", "-seed", "0"},
			exp.Options{Duration: 800, Warmup: 500, Replications: 3, Seed: 0}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fid := AddFidelity(fs)
		if err := Parse(fs, tc.args, Rule{}); err != nil {
			t.Fatal(err)
		}
		if got := fid.Options(); got != tc.want {
			t.Errorf("%v: options %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// TestWorkload: the group keeps the command's defaults and applies the
// flags and strategies onto a copy of its default config.
func TestWorkload(t *testing.T) {
	def := sim.Default()
	def.Spec.K, def.Seed = 3, 7
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	wl := AddWorkload(fs, def)
	if err := Parse(fs, []string{"-n", "2", "-psp", "DIV-1", "-load", "0.25"}, Rule{}); err != nil {
		t.Fatal(err)
	}
	cfg, err := wl.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec.K != 3 || cfg.Seed != 7 || cfg.Spec.Load != 0.25 || cfg.Spec.FactoryName() != "parallel-2" || cfg.Name() != "UD-DIV-1" {
		t.Errorf("config k=%d seed=%d load=%g factory=%s strategy=%s",
			cfg.Spec.K, cfg.Seed, cfg.Spec.Load, cfg.Spec.FactoryName(), cfg.Name())
	}
	if err := Parse(fs, []string{"-ssp", "bogus"}, Rule{}); err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Config(); err == nil || !strings.Contains(err.Error(), "-ssp") {
		t.Errorf("bad -ssp: err = %v, want an error naming -ssp", err)
	}
}

// TestTelemetryOff: without -serve, Start binds nothing and every live
// step is a no-op; without -obs too, telemetry stays off.
func TestTelemetryOff(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddTelemetry(fs, "")
	if err := Parse(fs, nil, Rule{}); err != nil {
		t.Fatal(err)
	}
	if err := tel.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	info := tel.Hook(&cfg)
	tel.Attach(nil, nil, info)
	if err := tel.FinalizeSystem(nil, nil, info); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := tel.Export(&out, nil, nil, info); err != nil || out.Len() != 0 {
		t.Errorf("Export with telemetry off = %v, printed %q", err, out.String())
	}
	tel.Close()
	if cfg.OnReplication != nil || tel.Options().Enabled {
		t.Error("telemetry wired without -obs or -serve")
	}
}

// TestTelemetryLive drives the live server's whole lifecycle on a
// loopback port: start, per-replication publishing on two workers, the
// final pin, the hold and the shutdown. Served without -obs, the run
// prints its summary and writes no bundle.
func TestTelemetryLive(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddTelemetry(fs, "")
	if err := Parse(fs, []string{"-serve", "127.0.0.1:0", "-serve-every", "1", "-serve-hold", "1ms"}, Rule{}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := tel.Start(&out); err != nil {
		t.Fatal(err)
	}
	hub := tel.srv.Hub()
	cfg := sim.Default()
	cfg.Duration, cfg.Warmup, cfg.Workers, cfg.Obs = 500, 0, 2, tel.Options()
	info := tel.Hook(&cfg)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Export(&out, res.Obs, nil, info); err != nil {
		t.Fatal(err)
	}
	tel.Close()
	tel.Close() // a second Close is a no-op
	if hub.Publishes() == 0 || !cfg.Obs.Enabled {
		t.Errorf("publishes %d, telemetry enabled %v", hub.Publishes(), cfg.Obs.Enabled)
	}
	for _, want := range []string{"live telemetry on http://127.0.0.1:", "\n" + res.Obs.Summary(), "holding observability server for 1ms"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "telemetry exported") {
		t.Errorf("a run served without -obs exported a bundle:\n%s", out.String())
	}
}

// TestArgv: the generator only emits known flags, and is deterministic.
func TestArgv(t *testing.T) {
	fs := testFlags()
	data := []byte{0, 1, 2, 9, 3, 200, 'x', 'y', 'z', 'w', 4, 5, 'p', 'o', 's'}
	a, b := Argv(fs, data), Argv(fs, data)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("Argv not deterministic: %q vs %q", a, b)
	}
	for _, arg := range a[:len(a)-1] {
		name, _, _ := strings.Cut(strings.TrimPrefix(arg, "-"), "=")
		if fs.Lookup(name) == nil {
			t.Errorf("Argv emitted unknown flag %q in %q", name, a)
		}
	}
	if err := fs.Parse(a); err != nil && !strings.Contains(err.Error(), "invalid value") {
		t.Errorf("Argv output does not parse as flags: %v", err)
	}
}
