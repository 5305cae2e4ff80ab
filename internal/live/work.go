package live

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/task"
)

// Func is the body of a step: ordinary application code. The context's
// deadline is the owning task's real deadline; cooperative code should
// return promptly once it is cancelled.
type Func func(ctx context.Context) error

// Work is a serial-parallel composition of steps — the live counterpart of
// the paper's global task. Build it with Step, Sequence and Group.
type Work struct {
	name      string
	node      string
	pex       time.Duration
	fn        Func
	composite bool
	parallel  bool
	children  []*Work
}

// Errors returned by the Work constructors and validation.
var (
	ErrEmptyWork   = errors.New("live: composite work needs at least one child")
	ErrBadStep     = errors.New("live: step needs a node and a function")
	ErrNegativePex = errors.New("live: predicted duration must be non-negative")
)

// Step returns a leaf: fn runs at the named node, with predicted duration
// pex (used by the SSP strategies to budget serial stages; it need not be
// accurate — the paper shows EQF tolerates factor-of-two errors).
func Step(name, node string, pex time.Duration, fn Func) *Work {
	return &Work{name: name, node: node, pex: pex, fn: fn}
}

// Sequence returns work whose children execute one after another.
func Sequence(name string, children ...*Work) *Work {
	return &Work{name: name, composite: true, children: children}
}

// Group returns work whose children execute in parallel.
func Group(name string, children ...*Work) *Work {
	return &Work{name: name, composite: true, parallel: true, children: children}
}

// Name returns the node's label.
func (w *Work) Name() string { return w.name }

// IsStep reports whether w is a leaf.
func (w *Work) IsStep() bool { return !w.composite }

// Steps returns the leaves in left-to-right order.
func (w *Work) Steps() []*Work {
	var out []*Work
	w.walk(func(x *Work) {
		if x.IsStep() {
			out = append(out, x)
		}
	})
	return out
}

func (w *Work) walk(fn func(*Work)) {
	fn(w)
	for _, c := range w.children {
		c.walk(fn)
	}
}

// predicted returns the predicted critical-path duration of the subtree.
func (w *Work) predicted() time.Duration {
	if w.IsStep() {
		return w.pex
	}
	var total time.Duration
	for _, c := range w.children {
		p := c.predicted()
		if w.parallel {
			if p > total {
				total = p
			}
		} else {
			total += p
		}
	}
	return total
}

// build returns a fresh task tree for w: the leaves carry the predicted
// durations and an unbounded execution time, since a leaf's service ends
// when its function returns, not when the model says. Each leaf is
// registered as a step of lt.
func (o *Orchestrator) build(lt *liveTask, w *Work) *task.Task {
	if w.IsStep() {
		n := o.byName[w.node]
		t := task.MustSimple(w.name, n.n.ID(), simtime.Forever)
		t.Pex = simtime.Duration(w.pex.Seconds())
		s := &step{lt: lt, w: w, t: t, n: n}
		lt.steps = append(lt.steps, s)
		o.steps[t] = s
		return t
	}
	children := make([]*task.Task, len(w.children))
	for i, c := range w.children {
		children[i] = o.build(lt, c)
	}
	if w.parallel {
		return task.MustParallel(w.name, children...)
	}
	return task.MustSerial(w.name, children...)
}

// validate checks the tree against the known node set.
func (w *Work) validate(nodes map[string]*Node) error {
	if w.IsStep() {
		if w.fn == nil || w.node == "" {
			return fmt.Errorf("%w: step %q", ErrBadStep, w.name)
		}
		if w.pex < 0 {
			return fmt.Errorf("%w: step %q", ErrNegativePex, w.name)
		}
		if _, ok := nodes[w.node]; !ok {
			return fmt.Errorf("live: step %q references unknown node %q", w.name, w.node)
		}
		return nil
	}
	if len(w.children) == 0 {
		return fmt.Errorf("%w: %q", ErrEmptyWork, w.name)
	}
	for _, c := range w.children {
		if c == nil {
			return fmt.Errorf("live: nil child under %q", w.name)
		}
		if err := c.validate(nodes); err != nil {
			return err
		}
	}
	return nil
}
