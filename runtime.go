package sda

import (
	"context"
	"time"

	"repro/internal/live"
)

// The runtime layer executes serial-parallel graphs of real Go functions
// on worker nodes with wall-clock deadlines, decomposed by the same SDA
// strategies the simulator studies. See Orchestrator.

// Orchestrator is the live process manager: it owns worker nodes, assigns
// virtual deadlines, enforces precedence and reports outcomes.
type Orchestrator = live.Orchestrator

// Work is a serial-parallel composition of runnable steps.
type Work = live.Work

// Func is the body of a step.
type Func = live.Func

// Handle tracks an in-flight live task.
type Handle = live.Handle

// Report is the outcome of a live task.
type Report = live.Report

// StepReport is the outcome of one step of a live task.
type StepReport = live.StepReport

// WorkerNode is a live single-worker processing component.
type WorkerNode = live.Node

// NewOrchestrator returns a live orchestrator; add nodes with AddNode,
// then submit Work with Go.
func NewOrchestrator(opts ...OrchestratorOption) *Orchestrator {
	return live.NewOrchestrator(opts...)
}

// OrchestratorOption configures NewOrchestrator.
type OrchestratorOption = live.Option

// WithStrategies selects the SSP and PSP strategies used to decompose
// live deadlines (default UD-UD).
func WithStrategies(ssp SSP, psp PSP) OrchestratorOption {
	return live.WithStrategies(ssp, psp)
}

// WithDeadlineAbort withdraws a live task's steps from their nodes when
// its real deadline passes (the paper's process-manager abortion, live).
func WithDeadlineAbort() OrchestratorOption {
	return live.WithDeadlineAbort()
}

// Step returns a leaf work item: fn runs at the named node with predicted
// duration pex.
func Step(name, node string, pex time.Duration, fn Func) *Work {
	return live.Step(name, node, pex, fn)
}

// Sequence composes work serially.
func Sequence(name string, children ...*Work) *Work {
	return live.Sequence(name, children...)
}

// Group composes work in parallel.
func Group(name string, children ...*Work) *Work {
	return live.Group(name, children...)
}

// compile-time check that the facade signatures stay wired.
var _ = func() *Handle {
	o := NewOrchestrator()
	defer o.Close()
	h, _ := o.Go(context.Background(), nil, time.Time{})
	return h
}
