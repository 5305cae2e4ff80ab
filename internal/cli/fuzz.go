package cli

import (
	"flag"
	"fmt"

	"repro/internal/sim"
)

// fuzzValues are the values Argv draws from: the edges of the numeric
// rule, values that once hung or crashed a command, and the names the
// string flags accept.
var fuzzValues = []string{
	"0", "1", "2", "3", "-1", "-5", "0.5", "1e-300", "1e300", "NaN", "Inf", "-Inf",
	"100000000000", "9223372036854775807", "", "true", "false", "1ns", "10s",
	"UD", "DIV-1", "GF", "EQF", "bogus", "parallel", "serial", "layered", "forkjoin",
	"cond", "uniform", "noisy:2", "0.3,0.7", "pm", "local", "llf", "csv", "fig7", "table1", "all",
}

// Argv builds a command line from fs's flag names and fuzzed bytes, to
// fuzz a parse stage. Each byte pair sets one flag: the first byte picks
// the flag, the second a value from a pool of edge values or, past the
// pool, up to seven raw bytes of data. The rest of data becomes one
// positional argument.
func Argv(fs *flag.FlagSet, data []byte) []string {
	var names, args []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	for len(data) >= 2 && len(args) < 16 {
		name, pick := names[int(data[0])%len(names)], int(data[1])
		data = data[2:]
		val := ""
		if pick < len(fuzzValues) {
			val = fuzzValues[pick]
		} else {
			n := min(pick%8, len(data))
			val, data = string(data[:n]), data[n:]
		}
		args = append(args, "-"+name+"="+val)
	}
	if len(data) > 0 {
		args = append(args, string(data))
	}
	return args
}

// Bounded returns why a parse stage must not accept cfg: it fails
// Validate (ValidateReplay for a trace replay, whose trace is its
// workload), or its replications or span budget pass the flag caps.
func Bounded(cfg sim.Config, replay bool) error {
	validate := cfg.Validate
	if replay {
		validate = cfg.ValidateReplay
	}
	if err := validate(); err != nil {
		return err
	}
	if cfg.Replications > MaxReps || cfg.Obs.MaxSpans > MaxSpans {
		return fmt.Errorf("replications %d or span budget %d past the flag caps", cfg.Replications, cfg.Obs.MaxSpans)
	}
	return nil
}
