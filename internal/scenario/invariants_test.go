package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/task"
)

// checkerAPI is what the dense checker and the reference share.
type checkerAPI interface {
	node.Observer
	OnRelease(t, root *task.Task, budget simtime.Time)
	Bind(nodes []*node.Node)
	Finish()
	Violations() []string
}

var (
	_ checkerAPI = (*Checker)(nil)
	_ checkerAPI = (*refChecker)(nil)
)

// mint returns one item per deadline, each with its slot assigned: the
// item is submitted once to home (whose engine never runs), as the
// process manager's first Submit would.
func mint(tb testing.TB, home *node.Node, prefix string, vdls ...simtime.Time) []*node.Item {
	tb.Helper()
	items := make([]*node.Item, len(vdls))
	for i, vdl := range vdls {
		tk, err := task.NewSimple(fmt.Sprintf("%s%d", prefix, i), home.ID(), 1)
		if err != nil {
			tb.Fatal(err)
		}
		tk.VirtualDeadline = vdl
		it := home.AcquireItem(tk)
		if err := home.Submit(it); err != nil {
			tb.Fatal(err)
		}
		items[i] = it
	}
	return items
}

// orderStream feeds c a stream in which single callbacks find several
// violations at once: starts that many waiting items outrank, and a
// drain that leaves items waiting and in service at several nodes. With
// wide set, one start alone exceeds the violation cap.
func orderStream(tb testing.TB, c checkerAPI, wide bool) {
	eng := des.New()
	home := node.New(99, eng)
	nodes := []*node.Node{node.New(0, eng), node.New(1, eng), node.New(2, eng)}
	c.Bind(nodes)
	waiters := 4
	if wide {
		waiters = 40
	}
	now := simtime.Time(0)
	for k := len(nodes) - 1; k >= 0; k-- {
		n := nodes[k]
		vdls := make([]simtime.Time, waiters+1)
		for i := range vdls {
			vdls[i] = simtime.Time(10 + (i*7)%(waiters+1))
		}
		vdls[waiters] = 1000 // the item started out of EDF order
		items := mint(tb, home, fmt.Sprintf("n%d-", k), vdls...)
		for _, it := range items {
			c.OnEnqueue(n, it, now)
		}
		now++
		c.OnStart(n, items[waiters], now)
	}
	c.Finish()
}

// TestCheckerViolationOrderDeterministic replays multi-violation streams
// and requires the same violation list every time — also past the cap,
// where the order decides which violations are kept.
func TestCheckerViolationOrderDeterministic(t *testing.T) {
	for _, wide := range []bool{false, true} {
		var first []string
		for rep := 0; rep < 20; rep++ {
			c := NewChecker(false)
			orderStream(t, c, wide)
			got := c.Violations()
			if rep == 0 {
				first = got
				continue
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("wide=%v replay %d: violations differ:\n%q\nfirst:\n%q", wide, rep, got, first)
			}
		}
		if wide {
			if len(first) != maxViolations+1 {
				t.Fatalf("wide stream kept %d violations, want the cap %d plus the summary", len(first), maxViolations)
			}
			continue
		}
		// Node 2 starts first. Within a callback, waiting items are walked
		// by node id, then enqueue order; items in service by slot, which
		// node 2's items took first.
		want := []string{
			`t=1 node2: started "n2-4" but waiting "n2-0" outranks it under EDF`,
			`t=1 node2: started "n2-4" but waiting "n2-1" outranks it under EDF`,
		}
		if !reflect.DeepEqual(first[:2], want) {
			t.Fatalf("violation order:\n%q\nwant prefix:\n%q", first, want)
		}
		tail := first[len(first)-4:]
		wantTail := []string{
			`conservation: item "n2-3" still waiting at node2 after drain`,
			`conservation: item "n2-4" still in service at node2 after drain`,
			`conservation: item "n1-4" still in service at node1 after drain`,
			`conservation: item "n0-4" still in service at node0 after drain`,
		}
		if !reflect.DeepEqual(tail, wantTail) {
			t.Fatalf("drain order:\n%q\nwant suffix:\n%q", first, wantTail)
		}
	}
}

// TestCheckerMatchesReferenceOnOrderStreams pins the dense checker to the
// reference on the multi-violation streams: the same violations as a
// multiset, the same count past the cap.
func TestCheckerMatchesReferenceOnOrderStreams(t *testing.T) {
	for _, wide := range []bool{false, true} {
		d, r := NewChecker(false), newRefChecker(false)
		orderStream(t, d, wide)
		orderStream(t, r, wide)
		if d.dropped != r.dropped || len(d.violations) != len(r.violations) {
			t.Fatalf("wide=%v: %d kept + %d dropped, reference %d + %d",
				wide, len(d.violations), d.dropped, len(r.violations), r.dropped)
		}
		if !wide && !reflect.DeepEqual(sorted(d.Violations()), sorted(r.Violations())) {
			t.Fatalf("violations differ:\n%q\nreference:\n%q", d.Violations(), r.Violations())
		}
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// parityRig drives the dense checker and the reference with one observer
// stream and compares what each callback reports.
type parityRig struct {
	tb    testing.TB
	dense *Checker
	ref   *refChecker
	nodes []*node.Node // observed nodes
	homes []*node.Node // nodes that assigned the items' slots
	items []*node.Item
	now   simtime.Time
	gen   int

	drain     bool // empty both lists at half the cap, so the cap is never hit
	straddled bool // a callback crossed the cap; kept subsets may differ
}

func newParityRig(tb testing.TB, drain bool) *parityRig {
	eng, mintEng := des.New(), des.New()
	r := &parityRig{
		tb:    tb,
		dense: NewChecker(false),
		ref:   newRefChecker(false),
		nodes: []*node.Node{
			node.New(0, eng),
			node.New(1, eng, node.WithPolicy(node.FIFO{}), node.WithServers(2)),
			node.New(2, eng, node.WithPolicy(node.LLF{})),
			node.New(5, eng, node.WithPolicy(node.SJF{})),
		},
		homes: []*node.Node{node.New(0, mintEng), node.New(3, mintEng)},
		drain: drain,
	}
	for i := 0; i < 8; i++ {
		home := r.homes[i%len(r.homes)]
		r.items = append(r.items, mint(tb, home, fmt.Sprintf("i%d-", i), simtime.Time(i))...)
	}
	// Node 5 stays unbound: its state grows on demand, and its being
	// down is not tolerated at the drain.
	r.dense.Bind(r.nodes[:3])
	r.ref.Bind(r.nodes[:3])
	return r
}

// do runs one callback on both checkers and compares the violations it
// added: equal as multisets, or, where the callback crossed the cap, in
// count only.
func (r *parityRig) do(f func(c checkerAPI)) {
	d0, r0 := len(r.dense.violations), len(r.ref.violations)
	dd0 := r.dense.dropped
	f(r.dense)
	f(r.ref)
	dTotal := len(r.dense.violations) + r.dense.dropped
	rTotal := len(r.ref.violations) + r.ref.dropped
	if dTotal != rTotal || len(r.dense.violations) != len(r.ref.violations) {
		r.tb.Fatalf("violation counts differ: %d kept + %d dropped, reference %d + %d",
			len(r.dense.violations), r.dense.dropped, len(r.ref.violations), r.ref.dropped)
	}
	dNew, rNew := r.dense.violations[d0:], r.ref.violations[r0:]
	if r.dense.dropped > dd0 && len(dNew) > 0 {
		r.straddled = true
	} else if !reflect.DeepEqual(sorted(dNew), sorted(rNew)) {
		r.tb.Fatalf("callback violations differ:\n%q\nreference:\n%q", dNew, rNew)
	}
	if r.drain && len(r.dense.violations) >= maxViolations/2 {
		r.dense.violations = r.dense.violations[:0]
		r.ref.violations = r.ref.violations[:0]
	}
}

// recycle returns item i to its home pool and takes it out again for a
// new task, as the process manager does between incarnations: the
// struct, and so its slot, is reused.
func (r *parityRig) recycle(i int, vdl byte) {
	it := r.items[i]
	home := r.homes[i%len(r.homes)]
	if s := it.State(); s == node.StateQueued || s == node.StateServing {
		home.Remove(it)
	}
	home.RecycleItem(it)
	r.gen++
	tk, err := task.NewSimple(fmt.Sprintf("i%d-g%d", i, r.gen), home.ID(), simtime.Duration(1+vdl%5))
	if err != nil {
		r.tb.Fatal(err)
	}
	tk.VirtualDeadline = simtime.Time(vdl)
	tk.PriorityBoost = vdl%3 == 0
	if again := home.AcquireItem(tk); again != it {
		r.tb.Fatal("pool did not return the recycled item")
	}
}

// run interprets data as an observer stream, then drains.
func (r *parityRig) run(data []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	for steps := 0; pos < len(data) && steps < 512; steps++ {
		op := next() % 11
		switch op {
		case 0, 1, 2, 3, 4:
			n := r.nodes[int(next())%len(r.nodes)]
			it := r.items[int(next())%len(r.items)]
			at := r.now
			r.do(func(c checkerAPI) {
				switch op {
				case 0:
					c.OnEnqueue(n, it, at)
				case 1:
					c.OnStart(n, it, at)
				case 2:
					c.OnFinish(n, it, at)
				case 3:
					c.OnAbort(n, it, at)
				case 4:
					c.OnPreempt(n, it, at)
				}
			})
		case 5:
			r.nodes[int(next())%len(r.nodes)].Crash()
		case 6:
			r.nodes[int(next())%len(r.nodes)].Restart()
		case 7:
			i := int(next()) % len(r.items)
			r.recycle(i, next())
		case 8:
			it := r.items[int(next())%len(r.items)]
			if b := next(); b == 255 {
				it.Task.VirtualDeadline = simtime.Never
			} else {
				it.Task.VirtualDeadline = simtime.Time(b)
				it.Task.PriorityBoost = b%4 == 0
			}
		case 9:
			if b := next(); b == 0 {
				r.now-- // time runs backwards
			} else {
				r.now = r.now.Add(simtime.Duration(b) / 8)
			}
		case 10:
			leaf := r.items[int(next())%len(r.items)].Task
			budget, rdl := simtime.Time(next()), next()
			root, err := task.NewSimple("root", 0, 1)
			if err != nil {
				r.tb.Fatal(err)
			}
			root.RealDeadline = simtime.Time(rdl)
			if rdl == 0 {
				root.RealDeadline = simtime.Never
			}
			leaf.Arrival = r.now
			r.do(func(c checkerAPI) { c.OnRelease(leaf, root, budget) })
		}
	}
	r.do(func(c checkerAPI) { c.Finish() })
	if r.dense.dropped != r.ref.dropped {
		r.tb.Fatalf("dropped %d, reference %d", r.dense.dropped, r.ref.dropped)
	}
	if !r.straddled && !reflect.DeepEqual(sorted(r.dense.Violations()), sorted(r.ref.Violations())) {
		r.tb.Fatalf("violations differ:\n%q\nreference:\n%q", r.dense.Violations(), r.ref.Violations())
	}
}

// paritySeeds are observer streams that each seed in at least one
// violation kind (op codes as in parityRig.run).
var paritySeeds = [][]byte{
	// Legal cycles: enqueue, start, finish; a preempt and resume; aborts.
	{1, 0, 0, 9, 8, 0, 0, 1, 11, 0, 0, 1, 0, 0, 0, 0, 1, 0, 9, 4, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 2, 3},
	// Waiting twice, waiting at a second node, then starting at each.
	{0, 1, 3, 0, 1, 3, 0, 2, 3, 1, 1, 3, 1, 2, 3, 0, 1, 3},
	// Enqueued while in service, and both sets drained at the end.
	{0, 0, 4, 1, 0, 4, 0, 0, 4, 0, 2, 5},
	// Started without enqueue, finished/preempted/aborted out of service.
	{1, 0, 6, 2, 1, 7, 4, 2, 7, 3, 3, 7, 1, 3, 6},
	// Time backwards, a crashed node starting service, too many servers.
	{9, 40, 0, 1, 0, 9, 0, 5, 0, 0, 0, 1, 1, 0, 1, 0, 0, 2, 1, 0, 2},
	// Missing deadline, and every release violation.
	{8, 3, 255, 10, 3, 50, 60, 0, 1, 3, 10, 1, 50, 0, 8, 2, 200, 10, 2, 100, 90, 9, 200, 8, 4, 1, 10, 4, 250, 255},
	// Recycled items reused while the checker still tracks them, on a
	// crashed node.
	{5, 3, 0, 3, 2, 0, 3, 4, 7, 2, 9, 7, 4, 12, 0, 3, 2, 1, 3, 2, 0, 3, 6},
	// Out-of-order starts under every policy: outranking waiters.
	{0, 0, 0, 0, 0, 2, 0, 0, 4, 1, 0, 4, 0, 1, 1, 0, 1, 3, 0, 1, 5, 1, 1, 5, 0, 2, 0, 0, 2, 2, 1, 2, 2, 0, 3, 4, 0, 3, 6, 1, 3, 6},
}

// TestCheckerParitySeeds runs the fuzz seeds in both modes.
func TestCheckerParitySeeds(t *testing.T) {
	for i, seed := range paritySeeds {
		for _, drain := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/drain=%v", i, drain), func(t *testing.T) {
				newParityRig(t, drain).run(seed)
			})
		}
	}
}

// FuzzCheckerParity drives the dense checker and the map-keyed reference
// with arbitrary observer streams over several nodes, reused and
// recycled items, preempts, aborts and crashed nodes, and requires the
// same violations from every callback and the same dropped count.
func FuzzCheckerParity(f *testing.F) {
	for _, seed := range paritySeeds {
		f.Add(false, seed)
		f.Add(true, seed)
	}
	f.Fuzz(func(t *testing.T, drain bool, data []byte) {
		newParityRig(t, drain).run(data)
	})
}
