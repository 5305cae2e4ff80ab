package procmgr

import (
	"fmt"
	"testing"

	"repro/internal/simtime"
	"repro/internal/task"
)

// logRecorder appends "<label>.<callback>" per record.
type logRecorder struct {
	label string
	log   *[]string
}

func (r logRecorder) add(cb string) { *r.log = append(*r.log, r.label+"."+cb) }

func (r logRecorder) RecordLocal(*task.Task, bool)   { r.add("local") }
func (r logRecorder) RecordSubtask(*task.Task, bool) { r.add("subtask") }
func (r logRecorder) RecordGlobal(*task.Task, bool)  { r.add("global") }

// logListener extends logRecorder to every Listener callback.
type logListener struct{ logRecorder }

func (r logListener) RecordRelease(*task.Task, *task.Task, simtime.Time)     { r.add("release") }
func (r logListener) RecordCause(string, *task.Task, *task.Task, *task.Task) { r.add("cause") }
func (r logListener) RecordDagSubmit(*task.Dag, *task.Task)                  { r.add("dagsubmit") }
func (r logListener) RecordDagOutcome(*task.Dag, *task.Task, bool)           { r.add("dagoutcome") }

// TestRecordersFanOutOrder drives each of the seven callbacks through a
// combination with nil, plain and Listener members, nested one level:
// outcomes reach every member and the Listener callbacks every Listener
// member, both in argument order.
func TestRecordersFanOutOrder(t *testing.T) {
	var log []string
	a := logListener{logRecorder{"a", &log}}
	b := logRecorder{"b", &log}
	c := logListener{logRecorder{"c", &log}}
	d := logRecorder{"d", &log}
	rec := Recorders(a, nil, Recorders(b, nil, c), d)
	lis, ok := rec.(Listener)
	if !ok {
		t.Fatalf("Recorders with Listener members is %T, want a Listener", rec)
	}
	tk := task.MustSimple("t", 0, 1)
	dag := task.MustParseDag("x@0:1")

	all := []string{"a", "b", "c", "d"}
	listeners := []string{"a", "c"}
	calls := []struct {
		name string
		fire func()
		want []string
	}{
		{"local", func() { rec.RecordLocal(tk, false) }, all},
		{"subtask", func() { rec.RecordSubtask(tk, true) }, all},
		{"global", func() { rec.RecordGlobal(tk, false) }, all},
		{"release", func() { lis.RecordRelease(tk, tk, 42) }, listeners},
		{"cause", func() { lis.RecordCause("pred", tk, tk, tk) }, listeners},
		{"dagsubmit", func() { lis.RecordDagSubmit(dag, dag.Root()) }, listeners},
		{"dagoutcome", func() { lis.RecordDagOutcome(dag, dag.Root(), true) }, listeners},
	}
	for _, c := range calls {
		log = log[:0]
		c.fire()
		var want []string
		for _, label := range c.want {
			want = append(want, label+"."+c.name)
		}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Errorf("%s fan-out = %v, want %v", c.name, log, want)
		}
	}
}

// releaseLogger is a Listener that logs each release with its arguments.
type releaseLogger struct {
	NopRecorder
	label string
	log   *[]string
}

func (r releaseLogger) RecordRelease(tk, root *task.Task, budget simtime.Time) {
	*r.log = append(*r.log, fmt.Sprintf("%s(%s,%s,%v)", r.label, tk.Name, root.Name, budget))
}
func (releaseLogger) RecordCause(string, *task.Task, *task.Task, *task.Task) {}
func (releaseLogger) RecordDagSubmit(*task.Dag, *task.Task)                  {}
func (releaseLogger) RecordDagOutcome(*task.Dag, *task.Task, bool)           {}

// TestReleaseHooksFanOutOrder checks that a release reaches every Listener
// member of a combination, nils skipped, in argument order and with the
// task, root and budget passed through unchanged.
func TestReleaseHooksFanOutOrder(t *testing.T) {
	var log []string
	rec := Recorders(nil, releaseLogger{label: "a", log: &log}, nil, releaseLogger{label: "b", log: &log})
	lis, ok := rec.(Listener)
	if !ok {
		t.Fatalf("Recorders of listeners is %T, want a Listener", rec)
	}
	tk := task.MustSimple("x", 0, 1)
	root := task.MustSimple("r", 0, 1)
	lis.RecordRelease(tk, root, 42)
	want := "[a(x,r,42) b(x,r,42)]"
	if fmt.Sprint(log) != want {
		t.Fatalf("release fan-out = %v, want %v", log, want)
	}
}

func TestRecordersDegenerateCases(t *testing.T) {
	if _, ok := Recorders().(NopRecorder); !ok {
		t.Fatalf("combining nothing must yield NopRecorder")
	}
	if _, ok := Recorders(nil, nil).(NopRecorder); !ok {
		t.Fatalf("combining only nils must yield NopRecorder")
	}
	var log []string
	plain := logRecorder{"p", &log}
	lis := logListener{logRecorder{"l", &log}}
	if got := Recorders(nil, plain); got != Recorder(plain) {
		t.Fatalf("a single recorder must be returned unwrapped, got %T", got)
	}
	if got := Recorders(lis, nil); got != Recorder(lis) {
		t.Fatalf("a single listener must be returned unwrapped, got %T", got)
	}
	if got := Recorders(plain, nil, plain); isListener(got) {
		t.Fatalf("Recorders of plain recorders must not be a Listener (got %T)", got)
	}
	if got := Recorders(plain, Recorders(plain, plain)); isListener(got) {
		t.Fatalf("nested plain recorders must not be a Listener (got %T)", got)
	}
	if got := Recorders(plain, lis); !isListener(got) {
		t.Fatalf("Recorders with a Listener member must be a Listener (got %T)", got)
	}
}

func isListener(r Recorder) bool {
	_, ok := r.(Listener)
	return ok
}
