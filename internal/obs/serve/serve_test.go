package serve_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/serve"
	"repro/internal/sim"
)

// runServed runs one observed replication with a hub attached, hands its
// telemetry to the replication's fold and finalizes the hub on it, as a
// single-system run does. It returns the running server and the fold.
func runServed(t *testing.T) (*serve.Server, *obs.Merged) {
	t.Helper()
	cfg := sim.Default()
	cfg.Duration = 3000
	cfg.Warmup = 100
	cfg.Replications = 1
	cfg.Obs = obs.Options{Enabled: true, SampleEvery: 25}

	sys, err := sim.NewSystem(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	hub, fold := serve.NewHub(0), obs.NewMerged()
	info := serve.RunInfo{Label: "test", Replication: 1, Replications: 1, Horizon: float64(sys.Horizon())}
	hub.Attach(sys.Telemetry(), fold, info, 2)
	srv, err := serve.Start("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	if err := sys.Telemetry().MergeInto(fold); err != nil {
		t.Fatal(err)
	}
	hub.Finalize(fold, info)
	return srv, fold
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestEndpoints(t *testing.T) {
	srv, _ := runServed(t)
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if hub := srv.Hub(); hub.Publishes() < 2 {
		t.Fatalf("publishes = %d, want ticks plus the final snapshot", hub.Publishes())
	}

	if code, body := get(t, base+"/metrics"); code != 200 ||
		!strings.Contains(body, "sda_sched_enqueues_total") ||
		!strings.Contains(body, `sda_node_queue_depth{node="0"}`) {
		t.Fatalf("/metrics missing instruments: %d\n%.300s", code, body)
	}

	code, body := get(t, base+"/progress")
	if code != 200 {
		t.Fatalf("/progress: %d", code)
	}
	var pr serve.Progress
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if !pr.Done || pr.Percent != 100 || pr.Spans == 0 || pr.Ticks == 0 {
		t.Fatalf("final progress wrong: %+v", pr)
	}

	code, body = get(t, base+"/spans?n=10")
	if code != 200 {
		t.Fatalf("/spans: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || len(lines) > 10 {
		t.Fatalf("/spans?n=10 returned %d lines", len(lines))
	}
	for i, ln := range lines {
		if _, err := obs.DecodeRecord([]byte(ln)); err != nil {
			t.Fatalf("/spans line %d: %v", i+1, err)
		}
	}

	code, body = get(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	traceLines := strings.Split(strings.TrimSpace(body), "\n")
	if len(traceLines) == 0 || traceLines[0] == "" {
		t.Fatalf("/trace returned no trees")
	}
	for i, ln := range traceLines {
		var tree struct {
			Root  uint64          `json:"root"`
			Spans int             `json:"spans"`
			Tree  json.RawMessage `json:"tree"`
		}
		if err := json.Unmarshal([]byte(ln), &tree); err != nil {
			t.Fatalf("/trace line %d: %v", i+1, err)
		}
		if tree.Root == 0 || tree.Spans < 1 || len(tree.Tree) == 0 {
			t.Fatalf("/trace line %d: root=%d spans=%d", i+1, tree.Root, tree.Spans)
		}
	}
	// Filtering by a task name that never occurs yields an empty body.
	if code, body := get(t, base+"/trace?task=no-such-task"); code != 200 || strings.TrimSpace(body) != "" {
		t.Fatalf("/trace?task=no-such-task: %d %.80q", code, body)
	}

	code, body = get(t, base+"/blame")
	if code != 200 {
		t.Fatalf("/blame: %d", code)
	}
	var rpt attrib.Report
	if err := json.Unmarshal([]byte(body), &rpt); err != nil {
		t.Fatalf("/blame not a report: %v", err)
	}
	if rpt.Globals == 0 {
		t.Fatalf("live report saw no globals: %+v", rpt)
	}
	if code, body := get(t, base+"/blame?format=md"); code != 200 || !strings.HasPrefix(body, "# Miss-cause attribution") {
		t.Fatalf("/blame?format=md: %d %.80q", code, body)
	}

	if code, body := get(t, base+"/summary"); code != 200 || !strings.Contains(body, "outcomes") {
		t.Fatalf("/summary: %d %.120q", code, body)
	}
	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/blame") {
		t.Fatalf("index: %d %.120q", code, body)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := get(t, base+"/no-such"); code != 404 {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

// TestLiveBlameMatchesOffline proves the live /blame endpoint and the
// offline analyzer agree: the hub analyzes the same retained-plus-
// exemplar span set an offline sdaobs -from pass reads, so the bytes must
// be identical.
func TestLiveBlameMatchesOffline(t *testing.T) {
	srv, fold := runServed(t)
	_, live := get(t, "http://"+srv.Addr()+"/blame")
	offline, err := attrib.Analyze(fold.Snapshot().SpansForAnalysis()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if live != string(offline) {
		t.Fatalf("live blame differs from the offline analysis")
	}
}

// TestShardedHubMergesReplications publishes every shard of a
// multi-worker observed run into one hub and checks the served artifacts
// are the run's own fold: progress aggregates all shards, and the
// exposition, summary, span tail and blame report are byte-identical to
// the run's merged export and its offline analysis.
func TestShardedHubMergesReplications(t *testing.T) {
	cfg := sim.Default()
	cfg.Duration = 1500
	cfg.Warmup = 100
	cfg.Replications = 4
	cfg.Workers = 2
	cfg.Obs = obs.Options{Enabled: true, SampleEvery: 25}

	hub := serve.NewHub(0)
	info := serve.RunInfo{Label: "sharded", Replications: 4, Horizon: float64(cfg.Warmup + cfg.Duration)}
	cfg.OnReplication = func(sys *sim.System) {
		hub.Attach(sys.Telemetry(), sys.Fold(), info, 2)
	}
	cfg.OnReplicationDone = func(sys *sim.System) {
		hub.Publish(sys.Telemetry(), sys.Fold(), info, float64(sys.Horizon()), true)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var pr serve.Progress
	if err := json.Unmarshal(hub.ProgressJSON(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Done || pr.ShardsDone != 4 || pr.Percent != 100 {
		t.Fatalf("final sharded progress wrong: %+v", pr)
	}
	snap := res.Obs.Snapshot()
	g, ms := snap.GlobalCounts()
	if pr.Globals != g || pr.Missed != ms {
		t.Fatalf("progress globals %d/%d, merged run has %d/%d", pr.Globals, pr.Missed, g, ms)
	}

	var want strings.Builder
	if err := res.Obs.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if string(hub.Metrics()) != want.String() {
		t.Fatalf("served exposition differs from the run's merged export")
	}
	if hub.Summary() != snap.Summary() {
		t.Fatalf("served summary differs from the run's merged summary")
	}
	if hub.Blame() == nil || hub.Blame().Globals == 0 {
		t.Fatalf("sharded blame saw no globals")
	}
	offline, err := attrib.Analyze(snap.SpansForAnalysis()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(hub.BlameJSON()) != string(offline) {
		t.Fatalf("served blame differs from the analysis of the run's merged spans")
	}
	// /spans serves the last lines of the merged spans.jsonl export.
	var export, served strings.Builder
	if err := res.Obs.WriteSpans(&export); err != nil {
		t.Fatal(err)
	}
	tail := hub.SpansTail()
	for _, rec := range tail {
		if err := obs.WriteRecord(&served, rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := min(len(snap.Spans), 512); len(tail) != n || !strings.HasSuffix(export.String(), served.String()) {
		t.Fatalf("served span tail (%d spans) is not the last %d lines of the merged export", len(tail), n)
	}

	// Finalize installs the exact end-of-run aggregate; here it must be a
	// no-op on the bytes since every shard already folded.
	hub.Finalize(res.Obs, info)
	if string(hub.Metrics()) != want.String() {
		t.Fatalf("Finalize changed the served exposition")
	}
	if b := hub.BlameJSON(); b == nil {
		t.Fatalf("no blame after Finalize")
	}
}

// TestLiveReadsDuringShardedRun reads every live artifact while six
// replications run on four workers (run it under -race): each read must
// parse, the finished-shard and global-outcome counters must never go
// down, and once the run returns the served exposition must equal the
// run's merged export with no Finalize call.
func TestLiveReadsDuringShardedRun(t *testing.T) {
	cfg := sim.Default()
	cfg.Duration = 1500
	cfg.Warmup = 100
	cfg.Replications = 6
	cfg.Workers = 4
	cfg.Obs = obs.Options{Enabled: true, SampleEvery: 25}

	hub := serve.NewHub(64)
	info := serve.RunInfo{Label: "race", Replications: cfg.Replications, Horizon: float64(cfg.Warmup + cfg.Duration)}
	cfg.OnReplication = func(sys *sim.System) { hub.Attach(sys.Telemetry(), sys.Fold(), info, 1) }
	cfg.OnReplicationDone = func(sys *sim.System) {
		hub.Publish(sys.Telemetry(), sys.Fold(), info, float64(sys.Horizon()), true)
	}

	stop := make(chan struct{})
	errs := make(chan error, 1)
	reads := 0
	go func() {
		defer close(errs)
		var last serve.Progress
		for {
			select {
			case <-stop:
				return
			default:
			}
			reads++
			var pr serve.Progress
			if b := hub.ProgressJSON(); b != nil {
				if err := json.Unmarshal(b, &pr); err != nil {
					errs <- fmt.Errorf("progress: %v", err)
					return
				}
				if pr.ShardsDone < last.ShardsDone || pr.Globals < last.Globals || pr.Missed < last.Missed {
					errs <- fmt.Errorf("progress went down: %+v after %+v", pr, last)
					return
				}
				last = pr
			}
			if err := parseMetrics(hub.Metrics()); err != nil {
				errs <- err
				return
			}
			_ = hub.Summary()
			for i, rec := range hub.SpansTail() {
				if rec.Type != "span" {
					errs <- fmt.Errorf("span tail line %d has type %q", i, rec.Type)
					return
				}
			}
			if b := hub.BlameJSON(); b != nil {
				var rpt attrib.Report
				if err := json.Unmarshal(b, &rpt); err != nil {
					errs <- fmt.Errorf("blame: %v", err)
					return
				}
			}
			var trace strings.Builder
			if _, err := hub.Trace(&trace, ""); err != nil {
				errs <- fmt.Errorf("trace: %v", err)
				return
			}
			for _, ln := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
				if ln != "" && !json.Valid([]byte(ln)) {
					errs <- fmt.Errorf("trace line not JSON: %.80q", ln)
					return
				}
			}
		}
	}()
	res, err := sim.Run(cfg)
	close(stop)
	if rerr := <-errs; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d live reads, %d publishes", reads, hub.Publishes())

	var want strings.Builder
	if err := res.Obs.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if string(hub.Metrics()) != want.String() {
		t.Fatalf("served exposition after the run differs from the run's merged export")
	}
	var pr serve.Progress
	if err := json.Unmarshal(hub.ProgressJSON(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Done || pr.ShardsDone != cfg.Replications {
		t.Fatalf("progress after the run: %+v", pr)
	}
}

// parseMetrics checks that b is Prometheus text: every line a comment or
// a sample ending in a number.
func parseMetrics(b []byte) error {
	for _, ln := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			return fmt.Errorf("metrics line without a value: %q", ln)
		}
		if _, err := strconv.ParseFloat(ln[i+1:], 64); err != nil {
			return fmt.Errorf("metrics line %q: %v", ln, err)
		}
	}
	return nil
}

func TestProgressSSE(t *testing.T) {
	srv, _ := runServed(t)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/progress?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The hub sends the current snapshot on connect.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: {") {
		t.Fatalf("first SSE line %q", line)
	}
	var pr serve.Progress
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &pr); err != nil {
		t.Fatalf("SSE payload not progress JSON: %v", err)
	}
	if !pr.Done {
		t.Fatalf("snapshot after the run should be done: %+v", pr)
	}
}
