package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/des"
	"repro/internal/procmgr"
	"repro/internal/simtime"
	"repro/internal/task"
)

// Arrival is one recorded task arrival: the instant, the absolute real
// deadline, and the task tree (a bare simple task is a local task; a
// composite is a global task). Traces make workloads replayable across
// implementations and make externally captured workloads usable where the
// paper's model is purely synthetic.
type Arrival struct {
	At       simtime.Time
	Deadline simtime.Time
	Task     *task.Task
}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("workload: malformed trace")

// WriteTrace serialises arrivals, one per line:
//
//	<time> <deadline> <task expression>
//
// Lines beginning with '#' are comments. Task expressions use the bracket
// notation of the task package, so traces are human-readable and -editable.
func WriteTrace(w io.Writer, arrivals []Arrival) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# sda arrival trace: <time> <deadline> <task>"); err != nil {
		return err
	}
	for i, a := range arrivals {
		if a.Task == nil {
			return fmt.Errorf("%w: arrival %d has no task", ErrBadTrace, i)
		}
		if _, err := fmt.Fprintf(bw, "%s %s %s\n",
			strconv.FormatFloat(float64(a.At), 'g', 17, 64),
			strconv.FormatFloat(float64(a.Deadline), 'g', 17, 64),
			a.Task.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace produced by WriteTrace (or by hand). Arrivals
// are returned sorted by time. A time must be finite and non-negative, a
// deadline finite and no earlier than its time; any other line is an
// error naming it.
func ReadTrace(r io.Reader) ([]Arrival, error) {
	var out []Arrival
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("%w: line %d: want '<time> <deadline> <task>'", ErrBadTrace, lineNo)
		}
		at, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: time: %v", ErrBadTrace, lineNo, err)
		}
		if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return nil, fmt.Errorf("%w: line %d: time %v is not a finite, non-negative instant", ErrBadTrace, lineNo, at)
		}
		dl, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: deadline: %v", ErrBadTrace, lineNo, err)
		}
		if math.IsNaN(dl) || math.IsInf(dl, 0) {
			return nil, fmt.Errorf("%w: line %d: deadline %v is not finite", ErrBadTrace, lineNo, dl)
		}
		tk, err := task.Parse(parts[2])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineNo, err)
		}
		if dl < at {
			return nil, fmt.Errorf("%w: line %d: deadline %v before arrival %v",
				ErrBadTrace, lineNo, dl, at)
		}
		out = append(out, Arrival{At: simtime.Time(at), Deadline: simtime.Time(dl), Task: tk})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// Synthesize draws the arrivals a Spec would generate up to the horizon
// and returns them as a replayable trace. The same seed and spec always
// produce the same trace, and replaying it reproduces a live Driver run
// with the same seed exactly.
func Synthesize(spec Spec, seed uint64, horizon simtime.Time) ([]Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.DagFactory != nil {
		// Arrival carries a *task.Task; DAG globals have no tree form.
		return nil, fmt.Errorf("%w: DAG workloads (%s) cannot be serialised to a trace",
			ErrBadTrace, spec.DagFactory.Name())
	}
	globalStream, localStreams := streams(seed, spec.K)

	var out []Arrival
	if rate := spec.LocalRate(); rate > 0 {
		for nodeID := 0; nodeID < spec.K; nodeID++ {
			s := localStreams[nodeID]
			at := simtime.Time(0)
			for {
				at = at.Add(simtime.Duration(s.Exp(1 / rate)))
				if at.After(horizon) {
					break
				}
				l := spec.NewLocal(s, nil, nodeID, at)
				out = append(out, Arrival{At: at, Deadline: l.RealDeadline, Task: l})
			}
		}
	}
	if rate := spec.GlobalRate(); rate > 0 {
		s := globalStream
		at := simtime.Time(0)
		for {
			at = at.Add(simtime.Duration(s.Exp(1 / rate)))
			if at.After(horizon) {
				break
			}
			g, err := spec.NewGlobal(s, nil, at)
			if err != nil {
				return nil, err
			}
			out = append(out, Arrival{At: at, Deadline: g.RealDeadline, Task: g})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// replayed is the event context of one recorded arrival.
type replayed struct {
	mgr *procmgr.Manager
	a   Arrival
}

// replayFired submits one recorded arrival.
func replayFired(x any) {
	r := x.(*replayed)
	tk := r.mgr.Tasks().Clone(r.a.Task)
	tk.RealDeadline = r.a.Deadline
	if tk.IsSimple() {
		if err := r.mgr.SubmitLocal(tk); err != nil {
			panic(fmt.Sprintf("workload: replay local: %v", err))
		}
		return
	}
	if err := r.mgr.SubmitGlobal(tk); err != nil {
		panic(fmt.Sprintf("workload: replay global: %v", err))
	}
}

// Replay schedules the recorded arrivals into the engine, submitting each
// task to the manager at its recorded instant with its recorded deadline.
// Tasks are cloned into the manager's task.Slab, which takes them back
// after their final outcome, so a trace can be replayed many times. Every
// task's nodes are checked against the manager first, so a trace for a
// larger system is an error before anything is armed. The whole trace is
// armed with one des.ScheduleBatch call — a single heapify pass for large
// traces instead of one sift per arrival.
func Replay(eng *des.Engine, mgr *procmgr.Manager, arrivals []Arrival) error {
	ctxs := make([]replayed, len(arrivals))
	batch := make([]des.BatchEntry, len(arrivals))
	for i, a := range arrivals {
		if a.Task == nil {
			return fmt.Errorf("%w: arrival %d has no task", ErrBadTrace, i)
		}
		if err := mgr.CheckNodes(a.Task); err != nil {
			return fmt.Errorf("%w: arrival %d at %v: %w", ErrBadTrace, i, float64(a.At), err)
		}
		ctxs[i] = replayed{mgr: mgr, a: a}
		batch[i] = des.BatchEntry{At: a.At, Call: replayFired, Ctx: &ctxs[i]}
	}
	if err := eng.ScheduleBatch(batch); err != nil {
		return fmt.Errorf("workload: replay: %w", err)
	}
	return nil
}
