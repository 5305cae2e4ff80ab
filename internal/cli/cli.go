// Package cli is the flag layer of the simulation commands under cmd/:
// the flag groups several commands declare (telemetry, fidelity,
// workload/strategy), the split of a command into a parse stage and an
// execute stage, and one numeric rule every command applies:
//
//   - an omitted flag means its default;
//   - an explicitly set int, float or duration flag must be finite,
//     above zero (at least zero where zero is a real value, such as a
//     warmup) and at most its cap, or parsing fails with an error that
//     names the flag. Seeds take any value.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"time"
)

// Caps on the flags that mean the same in every command: far above any
// shipped use, below the point where the value alone exhausts memory.
const (
	MaxReps  = 1 << 16 // -reps: a run allocates its results up front
	MaxSpans = 1 << 24 // span budgets: 256 times the default of 65536
)

var sharedCaps = map[string]float64{"reps": MaxReps, "obs-max-spans": MaxSpans}

// Rule lists one command's exceptions to the numeric rule: the flags for
// which an explicit 0 is a real value, and caps beyond the shared ones.
type Rule struct {
	ZeroOK []string
	Max    map[string]float64
}

// Parse parses args into fs, then applies the numeric rule to every flag
// the command line set.
func Parse(fs *flag.FlagSet, args []string, r Rule) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil {
			err = r.check(f)
		}
	})
	return err
}

func (r Rule) check(f *flag.Flag) error {
	var v float64
	switch x := f.Value.(flag.Getter).Get().(type) {
	case int:
		v = float64(x)
	case float64:
		v = x
	case time.Duration:
		v = float64(x)
	default: // strings, bools and seeds
		return nil
	}
	max, capped := r.Max[f.Name]
	if !capped {
		max, capped = sharedCaps[f.Name]
	}
	zeroOK := slices.Contains(r.ZeroOK, f.Name)
	var why string
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		why = "must be finite"
	case v < 0 && zeroOK:
		why = "must not be negative"
	case v <= 0 && !zeroOK:
		why = "must be positive (omit the flag for its default)"
	case capped && v > max:
		why = "must be at most " + strconv.FormatFloat(max, 'f', -1, 64)
	default:
		return nil
	}
	return fmt.Errorf("flag -%s %s: %s", f.Name, f.Value, why)
}

// set reports whether the command line set the flag name.
func set(fs *flag.FlagSet, name string) bool {
	found := false
	fs.Visit(func(f *flag.Flag) { found = found || f.Name == name })
	return found
}

// A Plan is a command's validated invocation: everything its parse stage
// read and checked, with nothing started, written or bound yet.
type Plan interface{ Execute(w io.Writer) error }

// Run parses args with parse on a fresh FlagSet called name, then
// executes the plan, writing to w.
func Run[P Plan](name string, parse func(*flag.FlagSet, []string) (P, error), args []string, w io.Writer) error {
	p, err := parse(flag.NewFlagSet(name, flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	return p.Execute(w)
}

// Main runs the command on os.Args and stdout; on error it prints
// "name: error" to stderr and exits with status 1.
func Main[P Plan](name string, parse func(*flag.FlagSet, []string) (P, error)) {
	if err := Run(name, parse, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}
