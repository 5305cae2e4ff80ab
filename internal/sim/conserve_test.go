package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// Work conservation as an exact oracle. A deadline-assignment strategy
// or a local policy only reorders work: with one server per node, no
// abort and no fault, every work-conserving discipline gives each node
// the same busy periods from the same arrivals. Arrivals match across
// strategies and policies only when no node's arrivals depend on the
// order of service, which holds for parallel-only global tasks (every
// subtask is submitted when its global task arrives) and not for serial
// ones, whose later stages are released when earlier stages finish.

// conservePSPs, conservePolicies and conserveFactories span the
// strategies, local policies and parallel-only workloads compared.
var (
	conservePSPs      = []sda.PSP{sda.UD{}, sda.MustDiv(1), sda.GF{}}
	conservePolicies  = []node.Policy{node.EDF{}, node.FIFO{}, node.LLF{}, node.SJF{}}
	conserveFactories = []workload.Factory{workload.FixedParallel{N: 4}, workload.UniformParallel{Min: 2, Max: 6}}
)

// conserveUlps bounds how far two disciplines' busy-period ends may
// drift apart: an end instant is a sum of service times taken in a
// discipline-dependent order, so only its rounding differs.
const conserveUlps = 16

// busyPeriod is one maximal interval during which a node holds work:
// from the arrival that finds it empty to the departure that empties it.
type busyPeriod struct {
	start, end simtime.Time
	joins      int // tasks that arrived at the node during the period
}

// busyPeriods splits a run's scheduling log into per-node busy periods.
// A task joins a node at its first event there and leaves it at its
// finish or abort; a preempted task stays. With every subtask submitted
// on arrival, the joins of a period are exactly the arrivals in
// [start, end), so equal starts and join counts mean the same partition
// of the node's tasks into periods.
func busyPeriods(log node.Log, nodes int) [][]busyPeriod {
	type incarnation struct {
		home, slot int
		gen        uint32
	}
	out := make([][]busyPeriod, nodes)
	present := make([]map[incarnation]bool, nodes)
	for i := range present {
		present[i] = map[incarnation]bool{}
	}
	for _, e := range log {
		at, k := present[e.Node], incarnation{e.Home, e.Slot, e.Gen}
		switch e.Kind {
		case node.EventFinish, node.EventAbort:
			delete(at, k)
			if len(at) == 0 {
				out[e.Node][len(out[e.Node])-1].end = e.At
			}
		default:
			if at[k] {
				continue
			}
			if len(at) == 0 {
				out[e.Node] = append(out[e.Node], busyPeriod{start: e.At})
			}
			at[k] = true
			out[e.Node][len(out[e.Node])-1].joins++
		}
	}
	return out
}

// conserveName names a configuration by its strategies, policy and
// preemption mode.
func conserveName(cfg Config) string {
	return fmt.Sprintf("%s/%s/preempt=%t", cfg.Name(), cfg.Policy.Name(), cfg.Preemptive)
}

// conserveConfig is one work-conserving configuration: one server per
// node, no abort, a parallel-only factory at the given load.
func conserveConfig(f workload.Factory, psp sda.PSP, pol node.Policy, preempt bool, load float64) Config {
	cfg := Default()
	cfg.Spec.Factory = f
	cfg.Spec.Load = load
	cfg.PSP = psp
	cfg.Policy = pol
	cfg.Preemptive = preempt
	cfg.Abort = AbortNone
	cfg.Servers = 1
	cfg.Duration = 1500
	cfg.Warmup = 0
	cfg.Replications = 1
	return cfg
}

// resolvedTasks counts the tasks a run resolves: each local task, and
// each simple subtask of each global task.
type resolvedTasks int

func (n *resolvedTasks) RecordLocal(*task.Task, bool)   { *n++ }
func (n *resolvedTasks) RecordSubtask(*task.Task, bool) {}
func (n *resolvedTasks) RecordGlobal(root *task.Task, _ *task.Dag, _ bool) {
	*n += resolvedTasks(root.CountSimple())
}

// runBusyPeriods runs cfg once at seed and returns its per-node busy
// periods. It fails the test unless every period ends and the periods
// hold exactly the tasks the run resolved, so a discipline that loses
// or invents work fails here even where every discipline would agree.
func runBusyPeriods(t testing.TB, cfg Config, seed uint64) [][]busyPeriod {
	t.Helper()
	var log node.Log
	var resolved resolvedTasks
	cfg.Observer = &log
	cfg.Recorder = &resolved
	cfg.Seed = seed
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	periods := busyPeriods(log, cfg.Spec.K)
	joins := 0
	for n, ps := range periods {
		for i, p := range ps {
			if p.end < p.start {
				t.Fatalf("%s: node %d busy period %d from %v never ends", conserveName(cfg), n, i, p.start)
			}
			joins += p.joins
		}
	}
	if joins != int(resolved) {
		t.Fatalf("%s: %d tasks joined a node, %d resolved", conserveName(cfg), joins, resolved)
	}
	return periods
}

// ulpsApart returns the distance between a and b in units in the last
// place (both are non-negative instants).
func ulpsApart(a, b simtime.Time) uint64 {
	x, y := math.Float64bits(float64(a)), math.Float64bits(float64(b))
	if x > y {
		return x - y
	}
	return y - x
}

// sameBusyPeriods reports the first difference between two runs' busy
// periods, or "" when every node has the same periods: the same start
// instants and join counts, and ends within conserveUlps.
func sameBusyPeriods(want, got [][]busyPeriod) string {
	for n := range want {
		if len(got[n]) != len(want[n]) {
			return fmt.Sprintf("node %d: %d busy periods, want %d", n, len(got[n]), len(want[n]))
		}
		for i, w := range want[n] {
			g := got[n][i]
			if g.start != w.start || g.joins != w.joins {
				return fmt.Sprintf("node %d period %d: start %v with %d tasks, want %v with %d",
					n, i, g.start, g.joins, w.start, w.joins)
			}
			if ulpsApart(g.end, w.end) > conserveUlps {
				return fmt.Sprintf("node %d period %d: ends at %v, want %v", n, i, g.end, w.end)
			}
		}
	}
	return ""
}

// TestWorkConservation checks every strategy × policy × preemption
// combination on parallel-only workloads against UD/FIFO without
// preemption: every node must show the same busy periods.
func TestWorkConservation(t *testing.T) {
	for _, f := range conserveFactories {
		ref := runBusyPeriods(t, conserveConfig(f, sda.UD{}, node.FIFO{}, false, 0.7), 1)
		periods := 0
		for _, ps := range ref {
			periods += len(ps)
		}
		if periods < 100 {
			t.Fatalf("%T: only %d busy periods", f, periods)
		}
		for _, psp := range conservePSPs {
			for _, pol := range conservePolicies {
				for _, preempt := range []bool{false, true} {
					cfg := conserveConfig(f, psp, pol, preempt, 0.7)
					if diff := sameBusyPeriods(ref, runBusyPeriods(t, cfg, 1)); diff != "" {
						t.Errorf("%T %s: %s", f, conserveName(cfg), diff)
					}
				}
			}
		}
	}
}

// FuzzWorkConservation draws a parallel-only configuration, a seed and
// a load, and checks that a strategy, policy and preemption mode chosen
// by the fuzzer give every node the same busy periods as UD/FIFO.
func FuzzWorkConservation(f *testing.F) {
	for i := uint8(0); i < 8; i++ {
		f.Add(uint64(i+1), i, i, i, i%2 == 1, uint8(2+i%6))
	}
	f.Fuzz(func(t *testing.T, seed uint64, fac, psp, pol uint8, preempt bool, load uint8) {
		fc := conserveFactories[int(fac)%len(conserveFactories)]
		l := 0.2 + float64(load%8)/10
		ref := runBusyPeriods(t, conserveConfig(fc, sda.UD{}, node.FIFO{}, false, l), seed)
		cfg := conserveConfig(fc, conservePSPs[int(psp)%len(conservePSPs)],
			conservePolicies[int(pol)%len(conservePolicies)], preempt, l)
		if diff := sameBusyPeriods(ref, runBusyPeriods(t, cfg, seed)); diff != "" {
			t.Fatalf("%T %s load %v seed %d: %s", fc, conserveName(cfg), l, seed, diff)
		}
	})
}
