// Live pipeline: the library beyond simulation. The runtime layer applies
// the paper's deadline-assignment strategies to *real* concurrent Go code:
// worker nodes are the simulator's EDF node.Nodes and the orchestrator is
// its procmgr process manager, both run on wall-clock time by
// internal/live; deadlines are wall-clock instants, and each step
// function runs on its own goroutine.
//
// The example mimics the stock-trading pipeline at millisecond scale and
// submits a burst of trades alongside background (local) work, showing how
// EQF-DIV1 budgets each trade's end-to-end deadline across its stages.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	sda "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// busy simulates cpu-ish work of roughly duration d that honours
// cancellation.
func busy(d time.Duration) sda.Func {
	return func(ctx context.Context) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func run() error {
	o := sda.NewOrchestrator(sda.WithStrategies(sda.EQF(), sda.Div(1)))
	defer o.Close()
	for _, name := range []string{"feed1", "feed2", "db", "rules", "gateway"} {
		if _, err := o.AddNode(name); err != nil {
			return err
		}
	}

	// One trading task: gather quotes from two feeds in parallel, analyse
	// against the database, then execute the order.
	trade := func(id int) *sda.Work {
		ms := time.Millisecond
		return sda.Sequence(fmt.Sprintf("trade-%d", id),
			sda.Group("gather",
				sda.Step("quotes-a", "feed1", 8*ms, busy(time.Duration(4+rand.Intn(8))*ms)),
				sda.Step("quotes-b", "feed2", 8*ms, busy(time.Duration(4+rand.Intn(8))*ms)),
			),
			sda.Step("analyse", "rules", 10*ms, busy(time.Duration(6+rand.Intn(8))*ms)),
			sda.Step("book", "db", 6*ms, busy(time.Duration(3+rand.Intn(6))*ms)),
			sda.Step("execute", "gateway", 5*ms, busy(time.Duration(2+rand.Intn(5))*ms)),
		)
	}

	// Submit a burst of 12 trades, each with a 120ms end-to-end deadline.
	var handles []*sda.Handle
	start := time.Now()
	for i := 0; i < 12; i++ {
		h, err := o.Go(context.Background(), trade(i), time.Now().Add(120*time.Millisecond))
		if err != nil {
			return err
		}
		handles = append(handles, h)
	}

	hits := 0
	for i, h := range handles {
		rep, err := h.Wait(context.Background())
		if err != nil {
			return err
		}
		status := "hit "
		if rep.Missed {
			status = "MISS"
		} else {
			hits++
		}
		fmt.Printf("trade-%-2d %s  finished %6.1fms after submit (deadline 120ms)\n",
			i, status, rep.Finish.Sub(start).Seconds()*1000)
	}
	fmt.Printf("\n%d/%d trades met their end-to-end deadline.\n", hits, len(handles))

	// Inspect one trade's budget to see EQF at work.
	h, err := o.Go(context.Background(), trade(99), time.Now().Add(120*time.Millisecond))
	if err != nil {
		return err
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		return err
	}
	fmt.Println("\nEQF-DIV1 virtual deadlines for one trade (ms after its release):")
	rel := rep.Steps[0].Release
	for _, s := range rep.Steps {
		fmt.Printf("  %-9s on %-8s virtual %6.1fms\n",
			s.Name, s.Node, s.Virtual.Sub(rel).Seconds()*1000)
	}
	return nil
}
