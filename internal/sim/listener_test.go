package sim

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/workload"
)

// callbackLog is a process-manager subscriber that writes one line per
// callback — task names, budget, edge kind and miss verdict — into a
// running hash, and counts the callbacks by kind. Its digest pins the
// exact callback sequence a run delivers.
type callbackLog struct {
	h      hash.Hash
	counts map[string]int
}

func newCallbackLog() *callbackLog {
	return &callbackLog{h: sha256.New(), counts: map[string]int{}}
}

func (l *callbackLog) line(kind, format string, args ...any) {
	l.counts[kind]++
	fmt.Fprintf(l.h, kind+" "+format+"\n", args...)
}

func (l *callbackLog) RecordLocal(t *task.Task, missed bool) {
	l.line("local", "%s %t", t.Name, missed)
}

func (l *callbackLog) RecordSubtask(t *task.Task, missed bool) {
	l.line("subtask", "%s %t", t.Name, missed)
}

func (l *callbackLog) RecordGlobal(root *task.Task, d *task.Dag, missed bool) {
	if d == nil {
		l.line("global", "%s %t", root.Name, missed)
		return
	}
	l.line("global", "%s %t dag %s %d", root.Name, missed, d.Name, d.Len())
}

func (l *callbackLog) RecordRelease(t, root *task.Task, budget simtime.Time) {
	l.line("release", "%s %s %v %v", t.Name, root.Name, float64(budget), float64(t.VirtualDeadline))
}

func (l *callbackLog) RecordCause(kind procmgr.Cause, from, to, root *task.Task) {
	l.line("cause", "%s %s %s %s", kind, from.Name, to.Name, root.Name)
}

func (l *callbackLog) RecordDagSubmit(d *task.Dag, root *task.Task) {
	l.line("dagsubmit", "%s %s %d", d.Name, root.Name, d.Len())
}

func (l *callbackLog) digest() string { return fmt.Sprintf("%x", l.h.Sum(nil)[:8]) }

// TestListenerCallbackSequence pins the full process-manager callback
// stream on three overloaded runs: the tree path under process-manager
// abort, the tree path under local-scheduler abort (resubmissions report
// fresh releases), and fork-join DAGs under process-manager abort; and on
// one DAG born dead, its deadline past at submission. The
// tree digests were recorded when releases reached subscribers through
// a separate release-hook option; the single subscriber interface must
// deliver the identical sequence. In the DAG digests a run's
// RecordGlobal carries the DAG and is its last callback, and
// RecordDagSubmit follows the accounting root's release.
func TestListenerCallbackSequence(t *testing.T) {
	base := func() Config {
		cfg := Default()
		cfg.Spec.Factory = workload.SerialParallel{Stages: 3, Fanout: 3}
		cfg.Spec.Load = 0.9
		cfg.Duration = 600
		cfg.Warmup = 50
		cfg.Replications = 1
		cfg.Seed = 17
		return cfg
	}
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"tree-pm-abort", func() Config {
			cfg := base()
			cfg.Abort = AbortProcessManager
			return cfg
		}, "ff3d58bbad8a4cf5"},
		{"tree-local-abort", func() Config {
			cfg := base()
			cfg.Spec.Factory = workload.FixedParallel{N: 4}
			cfg.PSP = sda.MustDiv(1)
			cfg.Abort = AbortLocalScheduler
			return cfg
		}, "fe1f4f13f7bfb86f"},
		{"dag-pm-abort", func() Config {
			cfg := base()
			cfg.Spec.Factory = nil
			cfg.Spec.DagFactory = workload.ForkJoinDag{Stages: 3, Fanout: 4, CrossProb: 0.3}
			cfg.SSP = sda.EQF{}
			cfg.Abort = AbortProcessManager
			return cfg
		}, "0b19439175467251"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			log := newCallbackLog()
			cfg := c.cfg()
			cfg.Recorder = log
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"release", "cause", "subtask", "global"} {
				if log.counts[kind] == 0 {
					t.Errorf("no %s callbacks (counts %v)", kind, log.counts)
				}
			}
			if got := log.digest(); got != c.want {
				t.Errorf("callback digest = %s, want %s (counts %v)", got, c.want, log.counts)
			}
		})
	}

	// A DAG whose real deadline has passed when it is submitted under
	// process-manager abort is born dead: the manager abandons it before
	// any release, marking every vertex aborted.
	t.Run("dag-born-dead", func(t *testing.T) {
		log := newCallbackLog()
		eng := des.New()
		nodes := []*node.Node{node.New(0, eng), node.New(1, eng)}
		m := procmgr.New(eng, nodes, sda.EQF{}, sda.UD{}, procmgr.WithPMAbort(), procmgr.WithRecorder(log))
		d := task.MustParseDag("a@0:2 b@1:3 c@0:1 ; a>b a>c")
		d.Root().RealDeadline = 5
		if _, err := eng.At(10, func() {
			if err := m.SubmitDag(d); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if log.counts["release"] != 0 || log.counts["dagsubmit"] != 0 || log.counts["global"] != 1 || log.counts["cause"] != 3 {
			t.Errorf("counts %v, want no release or announcement, one global, three abort causes", log.counts)
		}
		if got, want := log.digest(), "a034845b70fbddda"; got != want {
			t.Errorf("callback digest = %s, want %s (counts %v)", got, want, log.counts)
		}
	})
}

var _ procmgr.Listener = (*callbackLog)(nil)

// TestReleaseHookSeesEveryRelease: the deprecated Config.ReleaseHook
// observes exactly the releases a Listener does.
func TestReleaseHookSeesEveryRelease(t *testing.T) {
	cfg := Default()
	cfg.Spec.Factory = workload.SerialParallel{Stages: 3, Fanout: 3}
	cfg.Duration = 300
	cfg.Replications = 1
	cfg.Abort = AbortLocalScheduler
	cfg.PSP = sda.MustDiv(1)
	log := newCallbackLog()
	hooked := 0
	cfg.Recorder = log
	cfg.ReleaseHook = func(*task.Task, *task.Task, simtime.Time) { hooked++ }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if hooked == 0 || hooked != log.counts["release"] {
		t.Fatalf("release hook saw %d releases, listener %d", hooked, log.counts["release"])
	}
}
