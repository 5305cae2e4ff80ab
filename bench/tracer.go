package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/task"
)

// tracer instruments a traced run from the benchmark's side of the API:
// spans around every public call, the kernel flight recorder, and
// counting node and release hooks. Traced runs use one worker, so the
// tracer needs no locking. Every method is a no-op on a nil tracer.
type tracer struct {
	workload string
	t0       time.Time
	pass     int // id of the open pass span, 0 outside passes
	spans    []spanRecord
	count    counter
	flight   *des.Flight
	err      error // first flight merge failure
}

// spanRecord is one line of spans.jsonl. Times are seconds since the
// traced phase began; parent 0 means no parent and replication -1 a call
// that is not a single replication.
type spanRecord struct {
	ID          int     `json:"id"`
	Parent      int     `json:"parent"`
	Name        string  `json:"name"`
	Start       float64 `json:"start_s"`
	End         float64 `json:"end_s"`
	Workload    string  `json:"workload"`
	Replication int     `json:"replication"`
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string, rep int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, spanRecord{
		ID: len(t.spans) + 1, Parent: t.pass, Name: name,
		Start: time.Since(t.t0).Seconds(), Workload: t.workload, Replication: rep,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

func (t *tracer) beginPass() {
	if t != nil {
		t.pass = t.begin("pass", -1)
	}
}

func (t *tracer) endPass() {
	if t != nil {
		t.end(t.pass)
		t.pass = 0
	}
}

// attach wires the flight recorder and the counting hooks into cfg and
// opens a span for the call. The hooks make sim.Run sequential.
func (t *tracer) attach(cfg *sim.Config, name string, rep int) int {
	if t == nil {
		return 0
	}
	cfg.Flight = true
	cfg.Observer = &t.count
	cfg.ReleaseHook = t.count.onRelease
	return t.begin(name, rep)
}

// done closes the call's span and folds its flight recorder in.
func (t *tracer) done(id int, fl *des.Flight) {
	if t == nil {
		return
	}
	t.end(id)
	switch {
	case fl == nil:
	case t.flight == nil:
		t.flight = fl
	default:
		if err := t.flight.Merge(fl); err != nil && t.err == nil {
			t.err = err
		}
	}
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flightStats reads the recorder's counters, including the ones only
// its Prometheus exposition carries.
func (t *tracer) flightStats() (map[string]float64, error) {
	out := map[string]float64{}
	if t.flight == nil {
		return out, nil
	}
	var b strings.Builder
	if err := t.flight.WritePrometheus(&b); err != nil {
		return nil, err
	}
	prom := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("flight exposition line %q: %w", line, err)
		}
		prom[line[:i]] = v
	}
	fired := float64(t.flight.Fired())
	out["des.fired"] = fired
	out["des.scheduled"] = float64(t.flight.Scheduled())
	out["des.cancelled"] = float64(t.flight.Cancelled())
	out["des.batched"] = prom[`sda_flight_events_total{kind="batched"}`]
	out["des.pool_hit_ratio"] = t.flight.PoolHitRate()
	out["des.depth_max"] = prom["sda_flight_calendar_depth_max"]
	if fired > 0 {
		out["des.depth_mean"] = prom["sda_flight_calendar_depth_sum"] / fired
	}
	return out, nil
}

// counter is the counting node observer and release hook.
type counter struct {
	enqueues, starts, aborts, releases uint64
}

var _ node.Observer = (*counter)(nil)

func (c *counter) OnEnqueue(*node.Node, *node.Item, simtime.Time) { c.enqueues++ }
func (c *counter) OnStart(*node.Node, *node.Item, simtime.Time)   { c.starts++ }
func (c *counter) OnFinish(*node.Node, *node.Item, simtime.Time)  {}
func (c *counter) OnAbort(*node.Node, *node.Item, simtime.Time)   { c.aborts++ }
func (c *counter) OnPreempt(*node.Node, *node.Item, simtime.Time) {}

func (c *counter) onRelease(_, _ *task.Task, _ simtime.Time) { c.releases++ }
