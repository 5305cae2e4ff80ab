// Package live applies the paper's subtask deadline assignment to real
// concurrent execution: serial-parallel graphs of ordinary Go functions
// with wall-clock deadlines.
//
// It is not a second process manager. An Orchestrator runs the
// simulator's own procmgr.Manager and node.Nodes under a wall-clock
// driver: one loop goroutine owns a des.Engine, whose time is seconds
// since the orchestrator was created, together with the nodes and the
// manager, and every public call is posted to that loop. A step becomes a
// simple subtask with an unbounded execution time, so a node never
// completes it on its own. When a node starts one, the step's function
// runs on its own goroutine and its result is posted back to the loop,
// which ends the node's service (node.Node.EndService) on success and
// aborts the whole task (procmgr.Manager.AbortRun) on error. A step
// withdrawn from its node while its function still runs leaves a hold
// item in service there until the function returns, so a node never runs
// two functions at once. Deadline timers are ordinary engine events; the
// loop sleeps until the next one or the next posted call.
//
// Steps receive a context whose deadline is the task's *real* deadline,
// so cooperative work can stop once it has become worthless; the
// *virtual* deadline only sets queueing priority, exactly as in the paper.
package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/sda"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Errors returned by the orchestrator.
var (
	ErrClosed       = errors.New("live: orchestrator closed")
	ErrNodeClosed   = errors.New("live: node closed")
	ErrDupNode      = errors.New("live: duplicate node")
	ErrPastDeadline = errors.New("live: deadline already passed")
)

// Orchestrator is the live process manager: it owns a set of worker nodes,
// decomposes each submitted task's end-to-end deadline into per-step
// virtual deadlines with the configured SDA strategies, enforces
// precedence, and reports outcomes.
//
// An Orchestrator is safe for concurrent use; many tasks may be in flight
// at once, sharing the nodes exactly as the paper's global tasks share the
// system's components.
type Orchestrator struct {
	clock   clock
	epoch   time.Time
	ssp     sda.SSP
	psp     sda.PSP
	pmAbort bool

	msgs    chan func()   // calls posted to the loop
	stopped chan struct{} // closed when the loop exits

	// Owned by the loop goroutine.
	eng    *des.Engine
	hold   *task.Task // the task of every hold item
	mgr    *procmgr.Manager
	nodes  []*node.Node
	byName map[string]*Node
	tasks  map[*task.Task]*liveTask // in flight, by root
	steps  map[*task.Task]*step     // the leaves of tasks in flight
	closed bool
	stats  Stats
}

// Stats aggregates task outcomes across an orchestrator's lifetime.
type Stats struct {
	Submitted uint64 // tasks accepted by Go
	Resolved  uint64 // tasks whose handle has resolved
	Missed    uint64 // resolved tasks that missed (late or failed)
}

// MissRate returns Missed/Resolved, or 0 before any task resolves.
func (s Stats) MissRate() float64 {
	if s.Resolved == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Resolved)
}

// Option configures an Orchestrator.
type Option func(*Orchestrator)

// WithStrategies selects the SSP and PSP strategies (default UD-UD).
func WithStrategies(ssp sda.SSP, psp sda.PSP) Option {
	return func(o *Orchestrator) {
		if ssp != nil {
			o.ssp = ssp
		}
		if psp != nil {
			o.psp = psp
		}
	}
}

// WithDeadlineAbort is the paper's process-manager abortion, live
// (procmgr.WithPMAbort): when a task's real deadline passes, its steps are
// withdrawn from their nodes, its unreleased stages never run, and it
// fails with context.DeadlineExceeded. Running steps see their context
// expire as usual.
func WithDeadlineAbort() Option {
	return func(o *Orchestrator) { o.pmAbort = true }
}

// NewOrchestrator returns an orchestrator with no nodes; add them with
// AddNode before submitting work, and Close it to stop its loop.
func NewOrchestrator(opts ...Option) *Orchestrator {
	return newOrchestrator(realClock{}, opts...)
}

func newOrchestrator(c clock, opts ...Option) *Orchestrator {
	o := &Orchestrator{
		clock:   c,
		epoch:   c.Now(),
		ssp:     sda.SerialUD{},
		psp:     sda.UD{},
		msgs:    make(chan func()),
		stopped: make(chan struct{}),
		eng:     des.New(),
		hold:    task.MustSimple("hold", 0, simtime.Forever),
		byName:  make(map[string]*Node),
		tasks:   make(map[*task.Task]*liveTask),
		steps:   make(map[*task.Task]*step),
	}
	// A hold outranks every step: GF band, earliest possible deadline.
	o.hold.PriorityBoost = true
	o.hold.VirtualDeadline = simtime.Time(-math.MaxFloat64)
	for _, opt := range opts {
		opt(o)
	}
	o.mgr = o.newManager()
	go o.loop()
	return o
}

// newManager builds a process manager over the current node set. A
// Manager keeps the node slice it was built with, so AddNode builds a new
// one; tasks in flight stay with the manager they were submitted through.
func (o *Orchestrator) newManager() *procmgr.Manager {
	opts := []procmgr.Option{procmgr.WithRecorder(hooks{o: o})}
	if o.pmAbort {
		opts = append(opts, procmgr.WithPMAbort())
	}
	return procmgr.New(o.eng, o.nodes, o.ssp, o.psp, opts...)
}

// loop is the driver: it brings the engine up to the wall clock, runs the
// posted call that woke it, and sleeps until the next calendar instant or
// the next call. Leaf services are scheduled at simtime.Never and are not
// waited for. The loop exits once the orchestrator is closed and every
// task has resolved.
func (o *Orchestrator) loop() {
	defer close(o.stopped)
	for !o.closed || len(o.tasks) > 0 {
		var wake <-chan time.Time
		stop := func() bool { return false }
		if at, ok := o.eng.Next(); ok && !at.IsNever() {
			wake, stop = o.clock.Timer(o.instant(at).Sub(o.clock.Now()))
		}
		var f func()
		select {
		case f = <-o.msgs:
		case <-wake:
		}
		stop()
		o.eng.RunUntil(o.since(o.clock.Now()))
		if f != nil {
			f()
		}
	}
}

// do runs f on the loop and waits for it. Once the loop has stopped its
// state is final, and f runs on the caller; every f posted here only
// reads state once the orchestrator is closed.
func (o *Orchestrator) do(f func()) {
	done := make(chan struct{})
	select {
	case o.msgs <- func() { f(); close(done) }:
		<-done
	case <-o.stopped:
		f()
	}
}

// since converts a wall instant into engine time.
func (o *Orchestrator) since(t time.Time) simtime.Time {
	return simtime.Time(t.Sub(o.epoch).Seconds())
}

// instant converts engine time into a wall instant.
func (o *Orchestrator) instant(s simtime.Time) time.Time {
	return o.epoch.Add(time.Duration(float64(s) * float64(time.Second)))
}

// AddNode creates and registers a worker node.
func (o *Orchestrator) AddNode(name string) (w *Node, err error) {
	o.do(func() {
		switch {
		case o.closed:
			err = ErrClosed
		case o.byName[name] != nil:
			err = fmt.Errorf("%w: %q", ErrDupNode, name)
		default:
			w = &Node{o: o, name: name, n: node.New(len(o.nodes), o.eng, node.WithObserver(hooks{o: o}))}
			o.nodes = append(o.nodes, w.n)
			o.byName[name] = w
			o.mgr = o.newManager()
		}
	})
	return w, err
}

// Node returns a registered node, or nil.
func (o *Orchestrator) Node(name string) (w *Node) {
	o.do(func() { w = o.byName[name] })
	return w
}

// Stats returns a snapshot of the orchestrator's counters.
func (o *Orchestrator) Stats() (s Stats) {
	o.do(func() { s = o.stats })
	return s
}

// Close stops the orchestrator: Go and AddNode fail with ErrClosed, every
// queued step fails at once with ErrNodeClosed, which fails its task, and
// so does every stage released later. Close waits for running steps to
// return and for every task to resolve.
func (o *Orchestrator) Close() {
	o.do(func() {
		if o.closed {
			return
		}
		o.closed = true
		for _, w := range o.byName {
			w.closed = true
		}
		o.failClosed()
	})
	<-o.stopped
}

// failClosed fails every task with a step queued at a closed node, naming
// the task's leftmost such step.
func (o *Orchestrator) failClosed() {
	for _, lt := range o.tasks {
		for _, s := range lt.steps {
			if s.n.closed {
				o.failStep(s)
			}
		}
	}
}

// failStep fails s's task with ErrNodeClosed if s is queued or waiting to
// be withdrawn at its node and the task is still running.
func (o *Orchestrator) failStep(s *step) {
	it := s.item.Item()
	if it == nil || s.started || s.lt.over {
		return
	}
	s.rep.Err = ErrNodeClosed
	s.lt.err = fmt.Errorf("step %q: %w", s.w.name, ErrNodeClosed)
	s.lt.mgr.AbortRun(it)
}

// Node is a live worker: a single-server node.Node serving its queue in
// EDF order (GF band first), driven by the orchestrator's loop. It runs
// one step function at a time.
type Node struct {
	o       *Orchestrator
	name    string
	n       *node.Node
	closed  bool
	busy    bool            // a step function is running here
	idle    []chan struct{} // closed once busy clears (Close waits on them)
	served  uint64
	dropped uint64
}

// Name returns the node's identifier.
func (w *Node) Name() string { return w.name }

// QueueLen returns the number of steps waiting (excluding a running one).
func (w *Node) QueueLen() (q int) {
	w.o.do(func() { q = w.n.QueueLen() })
	return q
}

// Served returns how many step functions have returned here
// (successfully or not).
func (w *Node) Served() (c uint64) {
	w.o.do(func() { c = w.served })
	return c
}

// Dropped returns how many queued steps were withdrawn before running.
func (w *Node) Dropped() (c uint64) {
	w.o.do(func() { c = w.dropped })
	return c
}

// Close stops the node: every step queued here fails at once with
// ErrNodeClosed, which fails its task, and so does every step released
// to it later. Close waits for a running step function to return.
func (w *Node) Close() {
	var idle chan struct{}
	w.o.do(func() {
		if !w.closed {
			w.closed = true
			w.o.failClosed()
		}
		if w.busy {
			idle = make(chan struct{})
			w.idle = append(w.idle, idle)
		}
	})
	if idle != nil {
		<-idle
	}
}

// StepReport is the outcome of one leaf step.
type StepReport struct {
	Name    string
	Node    string
	Release time.Time // when the step became executable
	Virtual time.Time // assigned virtual deadline (queueing priority)
	Boost   bool      // GF band
	Finish  time.Time // when its function returned (zero if it never ran)
	Err     error     // nil on success
}

// Report is the outcome of a whole task.
type Report struct {
	Deadline time.Time
	Finish   time.Time
	Missed   bool // finished after Deadline, or failed
	Err      error
	Steps    []StepReport // one per step, in left-to-right order
}

// Handle tracks an in-flight task.
type Handle struct {
	done   chan struct{}
	report Report
}

// Done returns a channel closed when the task resolves.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the task resolves or ctx is cancelled.
func (h *Handle) Wait(ctx context.Context) (Report, error) {
	select {
	case <-h.done:
		return h.report, nil
	case <-ctx.Done():
		return Report{}, ctx.Err()
	}
}

// liveTask is one task in flight: its run in the manager plus the parts
// that live outside the model, the context and the step functions.
type liveTask struct {
	root    *task.Task
	mgr     *procmgr.Manager // the manager the run belongs to
	ctx     context.Context
	cancel  context.CancelFunc
	handle  *Handle
	steps   []*step // leaves in left-to-right order
	running int     // step functions that have not returned
	over    bool    // the run completed or was aborted
	err     error   // why the task failed
}

// step is one leaf of a liveTask.
type step struct {
	lt      *liveTask
	w       *Work
	t       *task.Task
	n       *Node
	item    node.ItemRef // its item at n; zero until released
	started bool         // its function was launched
	running bool         // its function has not returned
	hold    *node.Item   // keeps n busy while a withdrawn step still runs
	rep     StepReport   // Finish and Err, once its function returned
}

// Go submits a task: the work tree runs under the end-to-end deadline,
// with virtual deadlines assigned online by the orchestrator's strategies.
// The returned handle resolves when the task has finished or failed and
// every step function it started has returned.
//
// The supplied ctx bounds the whole task: its cancellation (and the
// deadline, which Go tightens to the task deadline) propagates to every
// step's context. On the first step error the task fails fast: its
// context is cancelled, its queued steps are withdrawn and its unreleased
// stages are reported as context.Canceled.
func (o *Orchestrator) Go(ctx context.Context, w *Work, deadline time.Time) (h *Handle, err error) {
	if w == nil {
		return nil, errors.New("live: nil work")
	}
	o.do(func() { h, err = o.submit(ctx, w, deadline) })
	return h, err
}

func (o *Orchestrator) submit(ctx context.Context, w *Work, deadline time.Time) (*Handle, error) {
	if o.closed {
		return nil, ErrClosed
	}
	if err := w.validate(o.byName); err != nil {
		return nil, err
	}
	if !deadline.After(o.clock.Now()) {
		return nil, fmt.Errorf("%w: %v", ErrPastDeadline, deadline)
	}
	lt := &liveTask{mgr: o.mgr, handle: &Handle{done: make(chan struct{})}}
	lt.ctx, lt.cancel = context.WithDeadline(ctx, deadline)
	lt.handle.report.Deadline = deadline
	lt.root = o.build(lt, w)
	lt.root.RealDeadline = o.since(deadline)
	o.tasks[lt.root] = lt
	o.stats.Submitted++
	if err := o.mgr.SubmitGlobal(lt.root); err != nil {
		// The tree was validated above; a failure here is a bug.
		panic(fmt.Sprintf("live: submit %q: %v", w.name, err))
	}
	return lt.handle, nil
}

// enqueued notes the item of a step released to its node. A step released
// to a closed node fails as soon as the current event is over: failing it
// here would abort its run in the middle of the manager's release.
func (o *Orchestrator) enqueued(it *node.Item) {
	s := o.steps[it.Task]
	if s == nil {
		return
	}
	s.item = it.Ref()
	if s.n.closed {
		if _, err := o.eng.After(0, func() { o.failStep(s) }); err != nil {
			panic(fmt.Sprintf("live: schedule node-closed failure: %v", err))
		}
	}
}

// start launches the function of a step its node just put in service. It
// launches nothing for a hold, at a closed node, or for a task that is
// being aborted: the step is about to be withdrawn.
func (o *Orchestrator) start(it *node.Item) {
	s := o.steps[it.Task]
	if s == nil || s.n.closed || s.lt.err != nil {
		return
	}
	s.started, s.running, s.n.busy = true, true, true
	s.lt.running++
	go o.run(s)
}

// withdrawn notes a step's item leaving its node unfinished. A step that
// never started was dropped. One whose function still runs is replaced
// by a hold, which takes the server before the node can dispatch again
// and keeps it until the function returns.
func (o *Orchestrator) withdrawn(it *node.Item) {
	s := o.steps[it.Task]
	switch {
	case s == nil:
	case !s.started:
		s.n.dropped++
	case s.running:
		s.hold = s.n.n.AcquireItem(o.hold)
		if err := s.n.n.Submit(s.hold); err != nil {
			panic(fmt.Sprintf("live: hold node %q: %v", s.n.name, err))
		}
	}
}

// run calls a step function on its own goroutine and posts the result to
// the loop; a panic becomes the step's error.
func (o *Orchestrator) run(s *step) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("live: step %q panicked: %v", s.w.name, r)
			}
		}()
		return s.w.fn(s.lt.ctx)
	}()
	// The loop outlives every task with a function still running, so this
	// send always finds it.
	o.msgs <- func() { o.returned(s, err) }
}

// returned settles a step whose function has returned. Success ends the
// node's service, and the manager releases whatever follows; an error
// aborts the task's run. When the run was aborted while the function ran,
// the step's hold frees the node and only the task's resolution is left.
func (o *Orchestrator) returned(s *step, err error) {
	lt, w := s.lt, s.n
	lt.running--
	s.running, w.busy = false, false
	w.served++
	for _, c := range w.idle {
		close(c)
	}
	w.idle = nil
	s.rep.Finish, s.rep.Err = o.clock.Now(), err
	switch it := s.item.Item(); {
	case s.hold != nil:
		h := s.hold
		s.hold = nil
		w.n.EndService(h)
		w.n.RecycleItem(h)
		o.resolve(lt)
	case err != nil:
		lt.err = fmt.Errorf("step %q: %w", s.w.name, err)
		lt.mgr.AbortRun(it)
	default:
		w.n.EndService(it)
	}
}

// finished records the end of a task's run. An abort that no step error
// caused is the deadline timer's.
func (o *Orchestrator) finished(root *task.Task) {
	lt := o.tasks[root]
	lt.over = true
	if root.Aborted {
		if lt.err == nil {
			lt.err = context.DeadlineExceeded
		}
		lt.cancel()
	}
	o.resolve(lt)
}

// resolve completes lt's report and handle once its run is over and every
// step function it started has returned. Release attributes come from the
// task tree the manager stamped: a leaf it never released still carries a
// Never virtual deadline.
func (o *Orchestrator) resolve(lt *liveTask) {
	if !lt.over || lt.running > 0 {
		return
	}
	now := o.clock.Now()
	rep := &lt.handle.report
	rep.Finish, rep.Err = now, lt.err
	rep.Missed = lt.err != nil || now.After(rep.Deadline)
	rep.Steps = make([]StepReport, len(lt.steps))
	for i, s := range lt.steps {
		r, t := s.rep, s.t
		r.Name, r.Node = s.w.name, s.w.node
		if t.VirtualDeadline.IsNever() { // a stage the abort skipped
			r.Release, r.Err = now, context.Canceled
		} else {
			r.Release, r.Virtual, r.Boost = o.instant(t.Arrival), o.instant(t.VirtualDeadline), t.PriorityBoost
			if !s.started && r.Err == nil { // withdrawn before it started
				r.Err = context.Canceled
			}
		}
		rep.Steps[i] = r
		delete(o.steps, t)
	}
	delete(o.tasks, lt.root)
	o.stats.Resolved++
	if rep.Missed {
		o.stats.Missed++
	}
	lt.cancel()
	close(lt.handle.done)
}

// hooks connects the loop to the simulator's callbacks: a node queueing,
// starting or withdrawing a leaf (node.Observer), and a run that completes
// or is aborted (procmgr.Recorder). They run on the loop.
type hooks struct {
	procmgr.NopRecorder
	o *Orchestrator
}

func (h hooks) OnEnqueue(_ *node.Node, it *node.Item, _ simtime.Time) { h.o.enqueued(it) }
func (h hooks) OnStart(_ *node.Node, it *node.Item, _ simtime.Time)   { h.o.start(it) }
func (h hooks) OnAbort(_ *node.Node, it *node.Item, _ simtime.Time)   { h.o.withdrawn(it) }
func (h hooks) RecordGlobal(root *task.Task, _ *task.Dag, _ bool)     { h.o.finished(root) }
func (hooks) OnFinish(*node.Node, *node.Item, simtime.Time)           {}
func (hooks) OnPreempt(*node.Node, *node.Item, simtime.Time)          {}

// clock is the loop's time source; tests substitute a manual one.
type clock interface {
	Now() time.Time
	// Timer returns a channel that receives once d has elapsed, and a
	// function that stops the timer.
	Timer(d time.Duration) (<-chan time.Time, func() bool)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Timer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}
