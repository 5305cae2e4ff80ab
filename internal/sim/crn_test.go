package sim

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/procmgr"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// localDraw and globalDraw are what the workload draws for one task,
// independent of how it is scheduled.
type localDraw struct {
	arrival simtime.Time
	exec    simtime.Duration
}

type globalDraw struct {
	arrival  simtime.Time
	work     simtime.Duration
	subtasks int
}

// drawLog records the draws of every task a run resolves.
type drawLog struct {
	procmgr.NopRecorder
	locals  []localDraw
	globals []globalDraw
}

func (l *drawLog) RecordLocal(t *task.Task, _ bool) {
	l.locals = append(l.locals, localDraw{t.Arrival, t.Exec})
}

func (l *drawLog) RecordGlobal(root *task.Task, _ *task.Dag, _ bool) {
	l.globals = append(l.globals, globalDraw{root.Arrival, root.TotalWork(), root.CountSimple()})
}

// sorted returns the log's draws in a canonical order, so two logs
// compare as multisets: tasks resolve in a schedule-dependent order.
func (l *drawLog) sorted() ([]localDraw, []globalDraw) {
	sort.Slice(l.locals, func(i, j int) bool {
		a, b := l.locals[i], l.locals[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		return a.exec < b.exec
	})
	sort.Slice(l.globals, func(i, j int) bool {
		a, b := l.globals[i], l.globals[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		if a.work != b.work {
			return a.work < b.work
		}
		return a.subtasks < b.subtasks
	})
	return l.locals, l.globals
}

// TestStrategiesSeeCommonRandomNumbers checks that the PSP strategies
// compared at one seed face the same workload: UD, DIV-1 and GF draw
// identical local (arrival, exec) and global (arrival, total work,
// subtask count) multisets. The reproduction report's shared cells and
// its paired strategy comparisons rest on this.
func TestStrategiesSeeCommonRandomNumbers(t *testing.T) {
	for _, load := range []float64{0.5, 0.7} {
		var (
			refLocals  []localDraw
			refGlobals []globalDraw
			refResult  Result
		)
		for i, psp := range []sda.PSP{sda.UD{}, sda.MustDiv(1), sda.GF{}} {
			cfg := Default()
			cfg.Duration, cfg.Warmup, cfg.Replications, cfg.Seed = 4000, 200, 1, 7
			cfg.Spec.Load = load
			cfg.PSP = psp
			log := &drawLog{}
			cfg.Recorder = log
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			locals, globals := log.sorted()
			if i == 0 {
				if len(locals) == 0 || len(globals) == 0 {
					t.Fatalf("load %v: %s resolved %d locals, %d globals", load, psp.Name(), len(locals), len(globals))
				}
				refLocals, refGlobals, refResult = locals, globals, res
				continue
			}
			if !reflect.DeepEqual(locals, refLocals) {
				t.Errorf("load %v: %s drew different locals than UD (%d vs %d tasks)", load, psp.Name(), len(locals), len(refLocals))
			}
			if !reflect.DeepEqual(globals, refGlobals) {
				t.Errorf("load %v: %s drew different globals than UD (%d vs %d tasks)", load, psp.Name(), len(globals), len(refGlobals))
			}
			// The strategies must still schedule differently, or the
			// comparison above shows nothing.
			if res.MDGlobal.Mean == refResult.MDGlobal.Mean {
				t.Errorf("load %v: %s and UD miss the same share of globals (%v)", load, psp.Name(), res.MDGlobal.Mean)
			}
		}
	}
}
