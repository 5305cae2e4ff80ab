package sim

import (
	"math"
	"testing"

	"repro/internal/node"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// Work conservation, statistical half. The time-average unfinished work
// at a node does not depend on the order of service: for Poisson
// arrivals (each global task picks its nodes independently of the past,
// so a node's local and subtask arrivals merge into one Poisson stream)
// it is the Pollaczek–Khinchine value λE[S²]/(2(1−ρ)) under any
// work-conserving discipline. The check pins the second moments of the
// service laws in workload/dist.go and the arrival rates of the load
// equations, under every local policy.
//
// Not covered: aborts remove work, Servers > 1 idles servers while work
// waits, faults change service rates, and preemption makes a task's
// work drain in pieces, so none of them fits the per-task integral
// below; serial and DAG workloads release work when earlier work
// finishes, so their node arrivals are not Poisson.

// workIntegral is a Recorder summing, per node, the integral over time
// of the unfinished work of the tasks that arrive in [from, to): a task
// holds its whole execution time exec while it waits and drains
// linearly while it is served, so it adds exec·wait + exec²/2, with
// wait = finish − arrival − exec at rate 1 and without preemption.
type workIntegral struct {
	from, to simtime.Time
	sum      []float64
}

func (w *workIntegral) add(t *task.Task) {
	if t.Arrival < w.from || t.Arrival >= w.to {
		return
	}
	x := float64(t.Exec)
	wait := float64(t.Finish.Sub(t.Arrival)) - x
	w.sum[t.Node] += float64(x*wait) + x*x/2
}

func (w *workIntegral) RecordLocal(t *task.Task, _ bool)         { w.add(t) }
func (w *workIntegral) RecordSubtask(t *task.Task, _ bool)       { w.add(t) }
func (w *workIntegral) RecordGlobal(*task.Task, *task.Dag, bool) {}

// pkWork is the Pollaczek–Khinchine time-average unfinished work per
// node of a parallel-only spec: λ_local E[S_local²] + λ_sub E[S_sub²]
// over 2(1−ρ). Each global task places its subtasks on distinct nodes,
// so a node receives Load·(1−FracLocal)/MeanSubtaskExec subtasks per
// unit time.
func pkWork(s workload.Spec) float64 {
	moment2 := func(d workload.Dist, mean float64) float64 {
		scv := 1.0 // nil is the exponential law
		if d != nil {
			scv = d.SCV()
		}
		return float64(mean*mean) * (1 + scv)
	}
	lamSub := s.Load * (1 - s.FracLocal) / s.MeanSubtaskExec
	num := float64(s.LocalRate()*moment2(s.LocalService, s.MeanLocalExec)) +
		float64(lamSub*moment2(s.SubtaskService, s.MeanSubtaskExec))
	return num / (2 * (1 - s.Load))
}

// TestWorkPollaczekKhinchine checks the time-average unfinished work of
// non-preemptive, abort-free, one-server runs on a parallel-only
// workload against the Pollaczek–Khinchine value at 3σ, where σ is the
// standard error of the mean over independent replications (each
// replication averages its nodes). It covers FIFO, LLF and SJF under
// exponential service, and EDF under each service law of the
// ServiceDist ablation.
func TestWorkPollaczekKhinchine(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const reps = 8
	type variant struct {
		pol  node.Policy
		dist workload.Dist
	}
	variants := []variant{{node.FIFO{}, workload.Exponential{}}, {node.LLF{}, workload.Exponential{}}, {node.SJF{}, workload.Exponential{}}}
	for _, d := range []workload.Dist{workload.Deterministic{}, workload.ErlangK{K: 4}, workload.Exponential{}, workload.HyperExp{CV2: 4}} {
		variants = append(variants, variant{node.EDF{}, d})
	}
	for _, v := range variants {
		cfg := conserveConfig(workload.FixedParallel{N: 4}, sda.MustDiv(1), v.pol, false, 0.5)
		cfg.Spec.LocalService, cfg.Spec.SubtaskService = v.dist, v.dist
		cfg.Duration = 10000
		cfg.Warmup = 1000
		t.Run(v.pol.Name()+"/"+v.dist.Name(), func(t *testing.T) {
			want := pkWork(cfg.Spec)
			var sum, sumSq float64
			for r := 0; r < reps; r++ {
				w := &workIntegral{
					from: simtime.Time(cfg.Warmup),
					to:   simtime.Time(cfg.Warmup + cfg.Duration),
					sum:  make([]float64, cfg.Spec.K),
				}
				cfg.Recorder = w
				cfg.Seed = uint64(101 + r)
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				avg := 0.0
				for _, s := range w.sum {
					avg += s
				}
				avg /= float64(float64(len(w.sum)) * float64(cfg.Duration))
				sum += avg
				sumSq += float64(avg * avg)
			}
			mean := sum / reps
			se := math.Sqrt((sumSq - float64(reps*mean*mean)) / (reps - 1) / reps)
			if math.Abs(mean-want) > 3*se {
				t.Errorf("time-average unfinished work %.4f (standard error %.4f), Pollaczek–Khinchine gives %.4f",
					mean, se, want)
			}
		})
	}
}
