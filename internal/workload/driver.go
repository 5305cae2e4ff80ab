package workload

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Driver feeds a process manager with the Spec's arrival streams: one
// Poisson stream of local tasks per node and one system-wide Poisson
// stream of global tasks. Arrivals stop at the horizon given to Start; the
// simulation then drains naturally.
//
// Every stream draws from its own substream of the seed, so per-node
// processes are statistically independent and the whole run is
// reproducible.
//
// The arrival hot path allocates little: each stream owns one arrival
// context scheduled through des.AtCall with a package-level callback (no
// per-arrival closures), Start arms all first arrivals with one
// des.ScheduleBatch call, and every task comes from the manager's
// task.Slab (procmgr.Manager.Tasks), which takes local tasks and trees
// back after their final outcome.
type Driver struct {
	eng     *des.Engine
	mgr     *procmgr.Manager
	spec    Spec
	horizon simtime.Time

	localStreams []*rng.Stream
	globalStream *rng.Stream

	// Per-stream arrival contexts, allocated once. localArrs never grows,
	// so pointers into it stay valid for the driver's life.
	localArrs []localArrival
	globalArr globalArrival

	locals  int64
	globals int64
}

// NewDriver validates the spec and prepares the random streams.
func NewDriver(eng *des.Engine, mgr *procmgr.Manager, spec Spec, seed uint64) (*Driver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{eng: eng, mgr: mgr, spec: spec}
	d.globalStream, d.localStreams = streams(seed, spec.K)
	return d, nil
}

// streams splits seed into the global-task stream and one local-task
// stream per node, in that order, as every run of the seed draws them.
func streams(seed uint64, k int) (global *rng.Stream, locals []*rng.Stream) {
	sp := rng.NewSplitter(seed)
	global = sp.Stream()
	locals = make([]*rng.Stream, k)
	for i := range locals {
		locals[i] = sp.Stream()
	}
	return global, locals
}

// Locals returns the number of local tasks generated so far.
func (d *Driver) Locals() int64 { return d.locals }

// Globals returns the number of global tasks generated so far.
func (d *Driver) Globals() int64 { return d.globals }

// Start schedules the first arrival of every stream in one batch (local
// streams in node order, then the global stream — the same order, and
// therefore the same RNG consumption and event sequence, as arming them
// one by one). New arrivals are generated while they fall at or before
// the horizon.
func (d *Driver) Start(horizon simtime.Time) error {
	d.horizon = horizon
	batch := make([]des.BatchEntry, 0, d.spec.K+1)
	localRate := d.spec.LocalRate()
	if localRate > 0 {
		d.localArrs = make([]localArrival, d.spec.K)
		for i := 0; i < d.spec.K; i++ {
			a := &d.localArrs[i]
			a.d, a.nodeID, a.meanInter = d, i, 1/localRate
			at := d.eng.Now().Add(simtime.Duration(d.localStreams[i].Exp(a.meanInter)))
			if at.After(d.horizon) {
				continue
			}
			batch = append(batch, des.BatchEntry{At: at, Call: localArrivalFired, Ctx: a})
		}
	}
	globalRate := d.spec.GlobalRate()
	if globalRate > 0 {
		a := &d.globalArr
		a.d, a.meanInter = d, 1/globalRate
		at := d.eng.Now().Add(simtime.Duration(d.globalStream.Exp(a.meanInter)))
		if !at.After(d.horizon) {
			batch = append(batch, des.BatchEntry{At: at, Call: globalArrivalFired, Ctx: a})
		}
	}
	return d.eng.ScheduleBatch(batch)
}

// localArrival is the reusable event context of one node's local-task
// stream.
type localArrival struct {
	d         *Driver
	nodeID    int
	meanInter float64
}

// localArrivalFired generates one local task and re-arms the stream.
func localArrivalFired(x any) {
	a := x.(*localArrival)
	d := a.d
	t := d.spec.NewLocal(d.localStreams[a.nodeID], d.mgr.Tasks(), a.nodeID, d.eng.Now())
	d.locals++
	if err := d.mgr.SubmitLocal(t); err != nil {
		panic(fmt.Sprintf("workload: submit local: %v", err))
	}
	if err := d.scheduleLocal(a); err != nil {
		panic(fmt.Sprintf("workload: schedule local: %v", err))
	}
}

func (d *Driver) scheduleLocal(a *localArrival) error {
	at := d.eng.Now().Add(simtime.Duration(d.localStreams[a.nodeID].Exp(a.meanInter)))
	if at.After(d.horizon) {
		return nil
	}
	_, err := d.eng.AtCall(at, localArrivalFired, a)
	return err
}

// globalArrival is the reusable event context of the system-wide
// global-task stream.
type globalArrival struct {
	d         *Driver
	meanInter float64
}

// globalArrivalFired generates one global task (tree or DAG) and re-arms
// the stream.
func globalArrivalFired(x any) {
	a := x.(*globalArrival)
	d := a.d
	d.globals++
	if err := d.spec.SubmitGlobal(d.mgr, d.globalStream, d.mgr.Tasks(), d.eng.Now()); err != nil {
		panic(fmt.Sprintf("workload: global arrival: %v", err))
	}
	if err := d.scheduleGlobal(a); err != nil {
		panic(fmt.Sprintf("workload: schedule global: %v", err))
	}
}

func (d *Driver) scheduleGlobal(a *globalArrival) error {
	at := d.eng.Now().Add(simtime.Duration(d.globalStream.Exp(a.meanInter)))
	if at.After(d.horizon) {
		return nil
	}
	_, err := d.eng.AtCall(at, globalArrivalFired, a)
	return err
}
