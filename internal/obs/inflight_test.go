package obs

import (
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/sda"
	"repro/internal/task"
)

// TestInflightIgnoresBornDead: a global task whose deadline has passed
// when it is submitted under process-manager abort is abandoned before
// any release, so it never entered the in-flight gauge and must not
// leave it either. A born-dead DAG and a born-dead tree leave the gauge
// at 0.
func TestInflightIgnoresBornDead(t *testing.T) {
	eng := des.New()
	nodes := []*node.Node{node.New(0, eng), node.New(1, eng)}
	tel := New(Options{Enabled: true})
	tel.Bind(eng, nodes)
	m := procmgr.New(eng, nodes, sda.EQF{}, sda.UD{}, procmgr.WithPMAbort(), procmgr.WithRecorder(tel))
	if _, err := eng.At(10, func() {
		d := task.MustParseDag("a@0:2 b@1:3 c@0:1 ; a>b a>c")
		d.Root().RealDeadline = 5
		if err := m.SubmitDag(d); err != nil {
			t.Error(err)
		}
		g := task.MustParallel("G", task.MustSimple("s", 0, 1), task.MustSimple("t", 1, 1))
		g.RealDeadline = 8
		if err := m.SubmitGlobal(g); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if tel.doneGlobal.Value() != 2 {
		t.Fatalf("globals recorded = %v, want 2", tel.doneGlobal.Value())
	}
	if tel.inflight != 0 {
		t.Errorf("in-flight gauge = %v after two born-dead globals, want 0", tel.inflight)
	}
}
