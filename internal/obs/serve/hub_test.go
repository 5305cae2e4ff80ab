package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// progress returns the hub's current progress payload, decoded.
func progress(t *testing.T, h *Hub) Progress {
	t.Helper()
	var p Progress
	if err := json.Unmarshal(h.ProgressJSON(), &p); err != nil {
		t.Fatalf("progress not JSON: %v", err)
	}
	return p
}

// TestFanoutDropsSlowSubscriber pins the SSE backpressure contract: a
// subscriber that stops reading keeps one pending wake-up and misses the
// rest, while publishing never blocks and fast subscribers are woken by
// every publish. A woken subscriber reads the latest progress.
func TestFanoutDropsSlowSubscriber(t *testing.T) {
	h := NewHub(0)
	tel, fold := obs.New(obs.Options{Enabled: true}), obs.NewMerged()
	info := RunInfo{Label: "drop", Replications: 1, Horizon: 100}

	slow := h.subscribe()
	fast := h.subscribe()
	defer h.unsubscribe(slow)
	defer h.unsubscribe(fast)

	const n = 8
	for i := 0; i < n; i++ {
		h.Publish(tel, fold, info, float64(i), false)
		select {
		case <-fast: // drained every publish: never misses
		default:
			t.Fatalf("fast subscriber missed publish %d", i)
		}
		if len(slow) != cap(slow) {
			t.Fatalf("slow subscriber holds %d wake-ups after publish %d, want a full channel of %d", len(slow), i, cap(slow))
		}
	}
	if got := h.Publishes(); got != n {
		t.Fatalf("publishes = %d, want %d (a slow subscriber must not block)", got, n)
	}
	// Draining the wake-up makes room for exactly the next one.
	<-slow
	if p := progress(t, h); p.Now != n-1 {
		t.Fatalf("woken subscriber reads now = %v, want the latest publish's %d", p.Now, n-1)
	}
	h.Publish(tel, fold, info, n, false)
	if len(slow) != cap(slow) {
		t.Fatalf("slow subscriber not woken again after draining: %d", len(slow))
	}
}

// TestHubResetOnReuse checks the run boundary: a publish into a
// different fold starts a fresh run — the sdascen suite reuses one hub,
// with one fold per scenario — while a publish of a replication the
// current fold already holds does not.
func TestHubResetOnReuse(t *testing.T) {
	h := NewHub(0)
	info := RunInfo{Label: "reuse", Replications: 1, Horizon: 100}

	tel, first := obs.New(obs.Options{Enabled: true}), obs.NewMerged()
	h.Publish(tel, first, info, 100, true)
	if p := progress(t, h); p.Done || p.ShardsDone != 1 || p.Percent != 100 {
		t.Fatalf("finished shard awaiting its fold: %+v, want 1 shard done at 100%% and the run not done", p)
	}
	if err := tel.MergeInto(first); err != nil {
		t.Fatal(err)
	}
	if p := progress(t, h); !p.Done || p.ShardsDone != 1 || p.Percent != 100 {
		t.Fatalf("first run not done once folded: %+v", p)
	}
	h.Publish(tel, first, info, 10, false)
	if p := progress(t, h); !p.Done || p.ShardsDone != 1 || p.Percent != 100 {
		t.Fatalf("a publish into the same fold reset the run: %+v", p)
	}
	h.Publish(obs.New(obs.Options{Enabled: true}), obs.NewMerged(), info, 10, false)
	if p := progress(t, h); p.Done || p.ShardsDone != 0 || p.Percent != 10 {
		t.Fatalf("hub did not reset for the next run: %+v", p)
	}
}
