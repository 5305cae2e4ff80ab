package analysis

import (
	"fmt"

	"repro/internal/procmgr"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Oracle is a procmgr.Recorder that checks every recorded outcome against
// the analytic lower bound: no task can finish faster than its critical
// path served at the fastest rate any node reaches. The bound is a
// sample-path property — it holds for every individual task under any
// queueing, contention, abortion, crash/re-execution or preemption
// pattern — so a single violation proves a simulator bug (time moving
// backwards, lost work accounting, a short-circuited precedence
// constraint).
//
// The oracle is passive: it mutates no task state and schedules no
// events, so attaching it perturbs neither the simulation nor its trace.
// Aborted (censored) tasks are skipped — they never completed, so their
// Finish carries no response time. All callbacks run on the simulation
// goroutine; the Oracle is not safe for concurrent use across engines.
type Oracle struct {
	maxRate float64

	checks     int64
	skipped    int64
	violations []string
	overflow   int64 // violations dropped past the message cap
}

// DefaultOracleTol is the relative tolerance applied to bound
// comparisons; response times are sums of float64 event timestamps, so
// exact comparisons would trip on accumulation error.
const DefaultOracleTol = 1e-6

// maxOracleViolations caps the retained violation messages; the count
// keeps incrementing past the cap.
const maxOracleViolations = 32

// The Oracle subscribes to outcomes only.
var _ procmgr.Recorder = (*Oracle)(nil)

// NewOracle returns an oracle assuming nominal service rates (max rate 1).
func NewOracle() *Oracle {
	return &Oracle{maxRate: 1}
}

// SetMaxRate declares the fastest service rate any node reaches during
// the run (fault injection may speed nodes up; the lower bound must be
// scaled by the best case). Values below 1 are clamped to 1.
func (o *Oracle) SetMaxRate(r float64) {
	if r > 1 {
		o.maxRate = r
	} else {
		o.maxRate = 1
	}
}

// Checks returns the number of bound checks performed.
func (o *Oracle) Checks() int64 { return o.checks }

// Skipped returns the number of records skipped as censored (aborted
// tasks, or tasks without a finish time).
func (o *Oracle) Skipped() int64 { return o.skipped }

// ViolationCount returns the total number of bound violations observed,
// including those dropped past the message cap.
func (o *Oracle) ViolationCount() int64 {
	return int64(len(o.violations)) + o.overflow
}

// Violations returns the retained violation messages (at most
// maxOracleViolations; further violations only increment the count).
func (o *Oracle) Violations() []string { return o.violations }

// check verifies finish - arrival >= want (within DefaultOracleTol,
// relative), recording a violation otherwise.
func (o *Oracle) check(kind, name string, t *task.Task, want simtime.Duration) {
	if t.Aborted || !t.Finished() || t.Arrival.IsNever() {
		o.skipped++
		return
	}
	o.checks++
	resp := t.Finish.Sub(t.Arrival)
	slackTol := DefaultOracleTol * (1 + float64(want))
	if float64(want)-float64(resp) > slackTol {
		o.violate("%s %q: response %v below analytic lower bound %v (arrival %v, finish %v)",
			kind, name, resp, want, t.Arrival, t.Finish)
	}
}

// violate records one violation message, respecting the cap.
func (o *Oracle) violate(format string, args ...any) {
	if len(o.violations) < maxOracleViolations {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	} else {
		o.overflow++
	}
}

// RecordLocal implements procmgr.Recorder: a local task cannot respond
// faster than its own execution time at the fastest rate.
func (o *Oracle) RecordLocal(t *task.Task, _ bool) {
	o.check("local", t.Name, t, t.Exec.Scale(1/o.maxRate))
}

// RecordSubtask implements procmgr.Recorder: a subtask cannot finish
// faster than its execution time from its release instant.
func (o *Oracle) RecordSubtask(t *task.Task, _ bool) {
	o.check("subtask", t.Name, t, t.Exec.Scale(1/o.maxRate))
}

// RecordGlobal implements procmgr.Recorder: a global task cannot respond
// faster than its critical path. For a DAG the accounting root's
// CriticalPath is only max-over-vertices, so the response is judged
// against the DAG's realized critical path instead.
func (o *Oracle) RecordGlobal(root *task.Task, d *task.Dag, _ bool) {
	if d != nil {
		o.check("dag", d.Name, root, d.CriticalPath().Scale(1/o.maxRate))
		return
	}
	o.check("global", root.Name, root, root.CriticalPath().Scale(1/o.maxRate))
}
