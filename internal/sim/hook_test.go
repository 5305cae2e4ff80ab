package sim_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// hookCalls records every OnReplication call and checks, at the hook,
// that the system has fired no event and that it carries a fold exactly
// when wantFold says so.
type hookCalls struct {
	t        *testing.T
	wantFold bool

	mu   sync.Mutex
	reps []int // System.Replication of each call
	of   []int // System.Replications of each call
}

func (h *hookCalls) hook(sys *sim.System) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reps = append(h.reps, sys.Replication)
	h.of = append(h.of, sys.Replications)
	if n := sys.Eng.Fired(); n != 0 {
		h.t.Errorf("OnReplication ran after %d events, want before any", n)
	}
	if got := sys.Fold() != nil; got != h.wantFold {
		h.t.Errorf("Fold() non-nil = %v at the hook, want %v", got, h.wantFold)
	}
}

// check compares the replications seen, in index order, with want, and
// the replication total of every call with of.
func (h *hookCalls) check(where string, want []int, of int) {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	got := append([]int(nil), h.reps...)
	sort.Ints(got)
	if !reflect.DeepEqual(got, want) {
		h.t.Errorf("%s: OnReplication saw replications %v, want %v", where, got, want)
	}
	for _, n := range h.of {
		if n != of {
			h.t.Errorf("%s: System.Replications = %d at the hook, want %d", where, n, of)
		}
	}
}

// TestOnReplicationFiresOncePerSystem: every system sim wires runs the
// hook exactly once, before its first event, with its replication index
// set: the one of NewSystem, RunOne and ReplayTrace, and each of Run's.
func TestOnReplicationFiresOncePerSystem(t *testing.T) {
	base := sim.Default()
	base.Duration, base.Warmup = 400, 40

	t.Run("NewSystem", func(t *testing.T) {
		h := &hookCalls{t: t}
		cfg := base
		cfg.OnReplication = h.hook
		sys, err := sim.NewSystem(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		h.check("NewSystem before Start", []int{0}, 1)
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		sys.Finish(sys.Horizon())
		h.check("NewSystem after Finish", []int{0}, 1)
	})

	t.Run("RunOne", func(t *testing.T) {
		h := &hookCalls{t: t}
		cfg := base
		cfg.OnReplication = h.hook
		if _, err := sim.RunOne(cfg, 7); err != nil {
			t.Fatal(err)
		}
		h.check("RunOne", []int{0}, 1)
	})

	t.Run("ReplayTrace", func(t *testing.T) {
		h := &hookCalls{t: t}
		cfg := base
		cfg.OnReplication = h.hook
		arrivals, err := workload.Synthesize(cfg.Spec, 7, simtime.Time(cfg.Warmup+cfg.Duration))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.ReplayTrace(cfg, arrivals); err != nil {
			t.Fatal(err)
		}
		h.check("ReplayTrace", []int{0}, 1)
	})

	for _, observed := range []bool{false, true} {
		name := "Run"
		if observed {
			name = "Run with Obs"
		}
		t.Run(name, func(t *testing.T) {
			h := &hookCalls{t: t, wantFold: observed}
			cfg := base
			cfg.Replications, cfg.Workers = 3, 2
			cfg.Obs.Enabled = observed
			cfg.OnReplication = h.hook
			if _, err := sim.Run(cfg); err != nil {
				t.Fatal(err)
			}
			h.check(name, []int{0, 1, 2}, 3)
		})
	}
}
