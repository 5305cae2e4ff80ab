package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/des"
	"repro/internal/simtime"
)

// Probe is one sampled series: a name and a reader evaluated at every
// sampler tick. Readers run on the simulation goroutine and must not
// mutate model state.
type Probe struct {
	Name string
	Read func() float64
}

// Sampler snapshots a set of probes on a fixed sim-time cadence into
// preallocated ring buffers: once armed it allocates nothing per tick,
// and when the run outlives the ring capacity the oldest samples are
// overwritten, keeping the most recent window.
type Sampler struct {
	every  simtime.Duration
	probes []Probe

	times []float64   // ring of sample instants
	vals  [][]float64 // per-probe rings, same geometry as times
	head  int         // next write position
	n     int         // occupied slots (<= cap)
	ticks uint64      // total ticks fired (>= n when the ring wrapped)

	// onTick, when set, runs after each sample on the simulation
	// goroutine. Like probes it must not mutate model state; the live
	// observability server uses it to publish snapshots.
	onTick func(now simtime.Time)
}

// SetOnTick registers fn to run after every sample. Pass nil to clear.
func (s *Sampler) SetOnTick(fn func(now simtime.Time)) { s.onTick = fn }

// newSampler preallocates rings for cap samples of the given probes.
func newSampler(every simtime.Duration, capacity int, probes []Probe) *Sampler {
	s := &Sampler{
		every:  every,
		probes: probes,
		times:  make([]float64, capacity),
		vals:   make([][]float64, len(probes)),
	}
	for i := range s.vals {
		s.vals[i] = make([]float64, capacity)
	}
	return s
}

// arm schedules the tick chain on eng: ticks fire every interval up to
// and including the horizon, then stop, so draining the calendar after
// the horizon terminates. Each tick only reads probes — it never mutates
// model state, so interleaving ticks with model events cannot change the
// model's event order.
func (s *Sampler) arm(eng *des.Engine, horizon simtime.Time) error {
	var tick func()
	next := eng.Now().Add(s.every)
	tick = func() {
		s.sample(eng.Now())
		at := eng.Now().Add(s.every)
		if at.After(horizon) {
			return
		}
		if _, err := eng.After(s.every, tick); err != nil {
			panic(fmt.Sprintf("obs: reschedule sampler tick: %v", err))
		}
	}
	if next.After(horizon) {
		return nil
	}
	_, err := eng.At(next, tick)
	return err
}

// sample records one snapshot at instant now.
func (s *Sampler) sample(now simtime.Time) {
	s.ticks++
	s.times[s.head] = float64(now)
	for i, p := range s.probes {
		s.vals[i][s.head] = p.Read()
	}
	s.head++
	if s.head == len(s.times) {
		s.head = 0
	}
	if s.n < len(s.times) {
		s.n++
	}
	if s.onTick != nil {
		s.onTick(now)
	}
}

// Ticks returns the number of sampler events fired so far.
func (s *Sampler) Ticks() uint64 { return s.ticks }

// Len returns the number of retained samples (after ring eviction).
func (s *Sampler) Len() int { return s.n }

// at returns the i-th retained sample (0 = oldest) as (time, row index
// into the rings).
func (s *Sampler) at(i int) (float64, int) {
	idx := i
	if s.n == len(s.times) { // wrapped: oldest sits at head
		idx = (s.head + i) % s.n
	}
	return s.times[idx], idx
}

// WriteCSV writes the retained samples as CSV: a "time,<probe>,..."
// header followed by one row per tick, oldest first, full float64
// precision (%g) for bit-stable goldens.
func (s *Sampler) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time")
	for _, p := range s.probes {
		b.WriteByte(',')
		b.WriteString(p.Name)
	}
	b.WriteByte('\n')
	for i := 0; i < s.n; i++ {
		t, idx := s.at(i)
		b.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
		for pi := range s.probes {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.vals[pi][idx], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
