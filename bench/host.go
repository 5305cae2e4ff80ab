package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostLine records where and when a result was measured.
func hostLine(workers int) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d workers=%d go=%s commit=%s time=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), commit,
		time.Now().UTC().Format(time.RFC3339))
}

// The host reference. On a shared host the simulator's speed drifts by
// 20-40% over minutes with other tenants' use of the caches and memory
// bus, while a pure arithmetic loop barely moves. A fixed kernel of
// short-lived small allocations, timed between passes, feels the same
// contention, so host-adjusted times (raw time x nominal reference time /
// the reference around the pass) spread a half to a fifth as much as raw
// ones from run to run (README, Calibration). The kernel is part of the
// benchmark, not of the simulator, so no change to the simulator moves it.
const refAllocs = 1_500_000 // allocations per goroutine per reference

// adjust is the factor that host-adjusts a time measured next to a
// reference of the given duration on the given number of goroutines. The
// nominal durations are the calibration host's medians in the first
// calibration rounds (README), so adjusted values read roughly like raw
// ones there.
func adjust(goroutines int, ref time.Duration) float64 {
	nominal := 80 * time.Millisecond
	if goroutines == 1 {
		nominal = 57 * time.Millisecond
	}
	return nominal.Seconds() / ref.Seconds()
}

// refSink keeps the kernel's checksum live.
var refSink uint64

// churnNode is the kernel's allocation unit, sized like the simulator's
// small per-task records.
type churnNode struct {
	next *churnNode
	v    [5]uint64
}

// churn allocates n nodes into 64 short chains that are dropped at random,
// so almost every node dies young, and returns a checksum.
func churn(seed uint64, n int) uint64 {
	var live [64]*churnNode
	x, sum := seed, uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 64
		nd := &churnNode{next: live[k]}
		nd.v[0] = x
		live[k] = nd
		if x%7 == 0 {
			live[k] = nil
		}
		sum += nd.v[0]
	}
	return sum
}

// hostRef times the kernel on the given number of goroutines, starting
// from a collected heap so its GC work does not depend on what the
// workload left behind. Afterwards it returns all free memory to the OS,
// so the next pass's peak memory does not include the kernel's garbage.
func hostRef(workers int) time.Duration {
	runtime.GC()
	sums := make([]uint64, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = churn(uint64(g+1), refAllocs)
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		refSink ^= s
	}
	debug.FreeOSMemory()
	return d
}

// bracket combines the references timed before and after a measurement
// (their geometric mean), which follows drift during the measurement
// better than either alone.
func bracket(before, after time.Duration) time.Duration {
	return time.Duration(math.Sqrt(float64(before) * float64(after)))
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped minus released), sampled every 10 ms. A small heap's peak
// jumps by half whenever a GC cycle starts late and the heap overshoots
// its goal, which the scavenger then returns only slowly; which passes
// catch such a spike varies from run to run, so the benchmark reports the
// lowest per-pass peak: the memory one pass needs.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			m.observe()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

var memSamples = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func (m *memSampler) observe() {
	s := make([]metrics.Sample, len(memSamples))
	for i, name := range memSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64() - s[1].Value.Uint64()
	for {
		old := m.peak.Load()
		if v <= old || m.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak since the previous take and starts a new one.
func (m *memSampler) take() uint64 {
	m.observe()
	return m.peak.Swap(0)
}

// close stops the sampler and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
