package sim

import (
	"testing"

	"repro/internal/sda"
	"repro/internal/workload"
)

// overloadConfig is a sustained-overload workload: offered load well
// above capacity, so abortion mechanisms are exercised constantly.
func overloadConfig(abort AbortMode, seed uint64) Config {
	return Config{
		Spec: workload.Spec{
			K:               4,
			Load:            1.5,
			FracLocal:       0.7,
			MeanLocalExec:   1,
			MeanSubtaskExec: 1,
			SlackMin:        1.25,
			SlackMax:        5,
			Factory:         workload.FixedParallel{N: 3},
		},
		Abort:        abort,
		Duration:     400,
		Warmup:       50,
		Replications: 1,
		Seed:         seed,
	}
}

func checkOverloadResult(t *testing.T, rep RepResult) {
	t.Helper()
	if rep.MissedWork < 0 || rep.MissedWork > 1 {
		t.Errorf("missed work %v outside [0, 1]", rep.MissedWork)
	}
	for _, md := range []struct {
		name string
		v    float64
	}{{"MDLocal", rep.MDLocal}, {"MDGlobal", rep.MDGlobal}, {"MDSubtask", rep.MDSubtask}} {
		if md.v < 0 || md.v > 1 {
			t.Errorf("%s = %v outside [0, 1]", md.name, md.v)
		}
	}
	if rep.Locals == 0 || rep.Globals == 0 {
		t.Errorf("overload run observed no tasks: locals %d, globals %d", rep.Locals, rep.Globals)
	}
	// Offered load 1.5 on a work-conserving system must keep the servers
	// essentially saturated over the measured horizon.
	if rep.Utilization < 0.5 {
		t.Errorf("utilization %v implausibly low under load 1.5", rep.Utilization)
	}
}

// TestLocalAbortTerminatesUnderOverload: with offered load 1.5 the
// local-abort discard/resubmit cycle must converge for every task — a
// resubmission livelock would hang the engine drain and trip the test
// timeout — and the statistics must stay within their defining bounds.
func TestLocalAbortTerminatesUnderOverload(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rep, err := RunOne(overloadConfig(AbortLocalScheduler, seed), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkOverloadResult(t, rep)
	}
}

// TestLocalAbortSerialStagesReuseRuns: a serial stage released after its
// budget has passed submits subtasks that the node local-aborts on the
// spot, so the global task is abandoned while its parallel fan-out loop is
// still running. The abandoned run goes back to the pool mid-loop; reusing
// it for a later task must not inherit the control blocks the loop went on
// to place (that used to overflow the slab and panic).
func TestLocalAbortSerialStagesReuseRuns(t *testing.T) {
	cfg := overloadConfig(AbortLocalScheduler, 17)
	cfg.Spec.Factory = workload.SerialParallel{Stages: 3, Fanout: 3}
	cfg.SSP = sda.EQF{}
	cfg.PSP = sda.MustDiv(1)
	rep, err := RunOne(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	checkOverloadResult(t, rep)
}

// TestPMAbortUnderOverload: the process-manager timers must reclaim work
// and keep every statistic within bounds under sustained overload.
func TestPMAbortUnderOverload(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rep, err := RunOne(overloadConfig(AbortProcessManager, seed), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkOverloadResult(t, rep)
		// PM abortion bounds tardy *global* work: an aborted task stops
		// executing at its real deadline, so late globals cannot keep
		// accumulating missed work without limit.
		if rep.MissedWork >= 1 {
			t.Errorf("seed %d: missed work %v should stay below 1 with PM abortion", seed, rep.MissedWork)
		}
	}
}

// TestAbortNoneDrainsEventually: even without abortion the engine must
// drain the backlog after arrivals stop (service demand is finite), with
// all statistics in range.
func TestAbortNoneDrainsEventually(t *testing.T) {
	cfg := overloadConfig(AbortNone, 4)
	cfg.Duration = 150 // keep the (linearly growing) backlog small
	rep, err := RunOne(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkOverloadResult(t, rep)
}
