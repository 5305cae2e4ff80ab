// Package par provides a minimal bounded worker pool for embarrassingly
// parallel jobs — in this repository, the independent simulation cells of
// a parameter sweep and the independent replications inside each cell.
// Each job is deterministic given its seed, so parallel execution changes
// wall-clock time only, never results.
//
// All Map calls in the process share one bounded pool of helper
// goroutines, capped at GOMAXPROCS as observed at first use. The calling
// goroutine always participates in its own Map, so nested calls (an
// experiment fanning out cells, each cell fanning out replications) never
// deadlock and never multiply goroutines: when the shared pool is
// exhausted, an inner Map simply degrades to inline execution on the
// worker that called it.
//
// Encode runs on the same pool: it encodes independent records in
// chunks and writes the chunks in index order, so the bytes do not
// depend on how many workers took part.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PanicError is what Map re-panics with on the caller's goroutine when a
// job function panicked: the original panic value plus the job index, so
// the failure is attributable and — like errors — the lowest index wins
// deterministically when several jobs panic.
type PanicError struct {
	Index int
	Value any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("par: fn(%d) panicked: %v", p.Index, p.Value)
}

// helperTokens is the process-wide cap on helper goroutines across all
// concurrent (and nested) Map calls. Sized once, at first use.
var (
	tokensOnce sync.Once
	tokens     chan struct{}
)

func helperTokens() chan struct{} {
	tokensOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
		tokens = make(chan struct{}, n)
	})
	return tokens
}

// Map runs fn(0..n-1) on at most workers goroutines and waits for all of
// them. It returns the error of the lowest index that failed (results of
// other calls are still produced by fn's own side effects). workers <= 0
// selects GOMAXPROCS.
//
// The caller's goroutine is one of the workers; at most workers-1 helpers
// are borrowed from the shared process-wide pool, so the concurrency of a
// single Map never exceeds workers and the helper goroutines of all Map
// calls together never exceed GOMAXPROCS.
//
// A panic inside fn does not crash the pool: remaining jobs still run,
// every worker drains, and Map re-panics on the caller's goroutine with a
// *PanicError for the lowest panicking index.
func Map(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next     int64 // atomic cursor over job indexes
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		pan      *PanicError
	)
	runOne := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if pan == nil || i < pan.Index {
					pan = &PanicError{Index: i, Value: v}
				}
				mu.Unlock()
			}
		}()
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx = i
				firstErr = err
			}
			mu.Unlock()
		}
	}
	loop := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			runOne(i)
		}
	}

	fanOut(workers, loop)
	if pan != nil {
		panic(pan)
	}
	return firstErr
}

// fanOut runs loop on the caller's goroutine and on up to workers-1
// helpers borrowed from the shared pool, and returns when every copy has
// returned. Each copy claims work until none is left, so a helper the
// pool cannot spare only means the others do its share.
func fanOut(workers int, loop func()) {
	tok := helperTokens()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		select {
		case tok <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-tok
					wg.Done()
				}()
				loop()
			}()
		default:
			// Shared pool exhausted: the remaining share of the work is
			// absorbed by the caller's own loop below.
		}
	}
	loop()
	wg.Wait()
}
