// Package task implements the paper's task model (Section 3.1): local
// tasks, simple subtasks, and serial-parallel global tasks built by the
// recursive rules GT1-GT3.
//
// A Task value is a node in a serial-parallel tree. Leaves (KindSimple) are
// simple subtasks destined for exactly one node; interior nodes compose
// their children in series or in parallel. The same type doubles as the
// runtime instance carrying the paper's per-task attributes:
//
//	ar(X)  — Arrival, the submission time
//	dl(X)  — RealDeadline (the task's true deadline) and VirtualDeadline
//	          (the deadline handed to the local scheduler by an SDA policy)
//	ex(X)  — Exec, the real execution time
//	pex(X) — Pex, the predicted execution time used by SSP strategies
//
// with sl(X) = dl(X) - ar(X) - ex(X) available via Slack.
package task

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/simtime"
)

// Kind discriminates the three task-tree node kinds of rules GT1-GT3.
// It is one byte so that it packs with Task's flags.
type Kind uint8

// Task kinds.
const (
	KindSimple   Kind = iota + 1 // GT1: executes at exactly one node
	KindSerial                   // GT2: children run one after another
	KindParallel                 // GT3: children run concurrently
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindSimple:
		return "simple"
	case KindSerial:
		return "serial"
	case KindParallel:
		return "parallel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors reported by constructors and Validate.
var (
	ErrNoChildren   = errors.New("task: composite task needs at least one child")
	ErrNegativeExec = errors.New("task: execution time must be non-negative")
	ErrNotSimple    = errors.New("task: operation requires a simple subtask")
	ErrNilChild     = errors.New("task: nil child")
)

// Task is one node of a serial-parallel task tree together with its
// runtime attributes. Build trees with NewSimple, NewSerial and
// NewParallel; zero values are not valid tasks.
//
// The one-byte fields sit together at the end so a Task is 104 bytes on
// 64-bit hosts (TestTaskSize); see Slab for why the size matters.
type Task struct {
	// Static structure.
	Name     string
	Children []*Task          // nil for simple subtasks
	Node     int              // execution node; meaningful for simple subtasks only
	Exec     simtime.Duration // ex(X); meaningful for simple subtasks only
	Pex      simtime.Duration // pex(X); meaningful for simple subtasks only

	// Runtime attributes, set by the process manager during execution.
	Arrival         simtime.Time // ar(X): when X became executable
	RealDeadline    simtime.Time // true deadline X is judged against
	VirtualDeadline simtime.Time // deadline presented to the local scheduler
	Finish          simtime.Time // completion instant (Never until finished)

	Kind          Kind
	PriorityBoost bool // GF band: schedule before all local tasks
	Aborted       bool // true if the task was abandoned

	pooled bool // drawn from a Slab, which may take it back (Slab.Reclaim)
}

// NewSimple returns a simple subtask (or a local task) named name, to be
// executed at node, with real execution time ex. The predicted execution
// time defaults to ex; callers model estimation error by overwriting Pex.
// It is Slab.Simple on a nil slab.
func NewSimple(name string, node int, ex simtime.Duration) (*Task, error) {
	return (*Slab)(nil).Simple(name, node, ex)
}

// MustSimple is NewSimple for statically valid arguments; it panics on
// error and is intended for tests and example code.
func MustSimple(name string, node int, ex simtime.Duration) *Task {
	t, err := NewSimple(name, node, ex)
	if err != nil {
		panic(err)
	}
	return t
}

// NewSerial returns a global task whose children execute in series
// (rule GT2).
func NewSerial(name string, children ...*Task) (*Task, error) {
	if err := checkChildren(children); err != nil {
		return nil, err
	}
	return newComposite(name, KindSerial, children), nil
}

// NewParallel returns a global task whose children execute in parallel
// (rule GT3).
func NewParallel(name string, children ...*Task) (*Task, error) {
	if err := checkChildren(children); err != nil {
		return nil, err
	}
	return newComposite(name, KindParallel, children), nil
}

// MustSerial is NewSerial, panicking on error; for tests and examples.
func MustSerial(name string, children ...*Task) *Task {
	t, err := NewSerial(name, children...)
	if err != nil {
		panic(err)
	}
	return t
}

// MustParallel is NewParallel, panicking on error; for tests and examples.
func MustParallel(name string, children ...*Task) *Task {
	t, err := NewParallel(name, children...)
	if err != nil {
		panic(err)
	}
	return t
}

func newComposite(name string, kind Kind, children []*Task) *Task {
	t := pristine(name, kind, 0, 0, 0)
	t.Children = children
	return &t
}

func checkChildren(children []*Task) error {
	if len(children) == 0 {
		return ErrNoChildren
	}
	for i, c := range children {
		if c == nil {
			return fmt.Errorf("%w at index %d", ErrNilChild, i)
		}
	}
	return nil
}

// IsSimple reports whether t is a simple subtask (a leaf).
func (t *Task) IsSimple() bool { return t.Kind == KindSimple }

// Slack returns sl(X) = dl(X) - ar(X) - ex(X) against the real deadline.
// For composite tasks Exec is the critical-path execution time.
func (t *Task) Slack() simtime.Duration {
	return t.RealDeadline.Sub(t.Arrival) - t.CriticalPath()
}

// Finished reports whether the task has completed.
func (t *Task) Finished() bool { return !t.Finish.IsNever() }

// Missed reports whether the task finished after its real deadline, or was
// aborted. It is meaningful only once the task is finished or aborted.
func (t *Task) Missed() bool {
	if t.Aborted {
		return true
	}
	return t.Finished() && t.Finish.After(t.RealDeadline)
}

// CriticalPath returns the length of the longest execution-time path
// through the tree: Exec for leaves, the sum over serial children, the max
// over parallel children. For a parallel-only task this is max_i ex(T_i),
// the quantity in the paper's deadline formula (Eq. 2).
func (t *Task) CriticalPath() simtime.Duration {
	switch t.Kind {
	case KindSimple:
		return t.Exec
	case KindSerial:
		var sum simtime.Duration
		for _, c := range t.Children {
			sum += c.CriticalPath()
		}
		return sum
	case KindParallel:
		var longest simtime.Duration
		for _, c := range t.Children {
			longest = longest.Max(c.CriticalPath())
		}
		return longest
	default:
		return 0
	}
}

// PredictedCriticalPath is CriticalPath computed over Pex instead of Exec.
// SSP strategies use it to budget time for downstream stages.
func (t *Task) PredictedCriticalPath() simtime.Duration {
	switch t.Kind {
	case KindSimple:
		return t.Pex
	case KindSerial:
		var sum simtime.Duration
		for _, c := range t.Children {
			sum += c.PredictedCriticalPath()
		}
		return sum
	case KindParallel:
		var longest simtime.Duration
		for _, c := range t.Children {
			longest = longest.Max(c.PredictedCriticalPath())
		}
		return longest
	default:
		return 0
	}
}

// TotalWork returns the sum of execution times over all simple subtasks —
// the total system effort the task consumes.
func (t *Task) TotalWork() simtime.Duration {
	var sum simtime.Duration
	t.Walk(func(n *Task) {
		if n.IsSimple() {
			sum += n.Exec
		}
	})
	return sum
}

// CountSimple returns the number of simple subtasks in the tree.
func (t *Task) CountSimple() int {
	n := 0
	t.Walk(func(x *Task) {
		if x.IsSimple() {
			n++
		}
	})
	return n
}

// Leaves returns the simple subtasks in left-to-right order.
func (t *Task) Leaves() []*Task {
	out := make([]*Task, 0, 8)
	t.Walk(func(x *Task) {
		if x.IsSimple() {
			out = append(out, x)
		}
	})
	return out
}

// Depth returns the height of the tree; a simple subtask has depth 1.
func (t *Task) Depth() int {
	if t.IsSimple() {
		return 1
	}
	max := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Walk visits every node of the tree in pre-order.
func (t *Task) Walk(fn func(*Task)) {
	fn(t)
	for _, c := range t.Children {
		c.Walk(fn)
	}
}

// Validate checks structural invariants over the whole tree: composites
// have children, leaves have none, execution times are non-negative.
func (t *Task) Validate() error {
	var err error
	t.Walk(func(n *Task) {
		if err != nil {
			return
		}
		switch n.Kind {
		case KindSimple:
			if len(n.Children) != 0 {
				err = fmt.Errorf("task %q: simple subtask has children", n.Name)
			} else if n.Exec < 0 {
				err = fmt.Errorf("task %q: %w", n.Name, ErrNegativeExec)
			} else if n.Pex < 0 {
				err = fmt.Errorf("task %q: negative predicted execution time", n.Name)
			}
		case KindSerial, KindParallel:
			if len(n.Children) == 0 {
				err = fmt.Errorf("task %q: %w", n.Name, ErrNoChildren)
			}
		default:
			err = fmt.Errorf("task %q: invalid kind %v", n.Name, n.Kind)
		}
	})
	return err
}

// Clone returns a deep copy of the tree with runtime attributes reset to
// their pristine (unreleased) state. Static structure, execution times and
// node assignments are preserved. It is Slab.Clone on a nil slab.
func (t *Task) Clone() *Task { return (*Slab)(nil).Clone(t) }

// String renders the tree in the paper's bracket notation, e.g.
// "[T1 [T2 || T3] T4]". Leaf attributes are included when informative:
// "name@node:ex" (and "/pex" when it differs from ex).
func (t *Task) String() string {
	var b strings.Builder
	t.format(&b)
	return b.String()
}

func (t *Task) format(b *strings.Builder) {
	switch t.Kind {
	case KindSimple:
		name := t.Name
		if name == "" {
			name = "_"
		}
		b.WriteString(name)
		b.WriteByte('@')
		b.WriteString(fmt.Sprintf("%d", t.Node))
		b.WriteByte(':')
		fmt.Fprintf(b, "%g", float64(t.Exec))
		if t.Pex != t.Exec {
			b.WriteByte('/')
			fmt.Fprintf(b, "%g", float64(t.Pex))
		}
	case KindSerial:
		b.WriteByte('[')
		for i, c := range t.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.format(b)
		}
		b.WriteByte(']')
	case KindParallel:
		b.WriteByte('[')
		for i, c := range t.Children {
			if i > 0 {
				b.WriteString(" || ")
			}
			c.format(b)
		}
		b.WriteByte(']')
	}
}
