package obs_test

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallConfig is a short baseline cell used by the end-to-end tests.
func smallConfig() sim.Config {
	cfg := sim.Default()
	cfg.Duration = 3000
	cfg.Warmup = 100
	cfg.Replications = 1
	return cfg
}

// runObserved wires one replication with telemetry and runs it.
func runObserved(t *testing.T, cfg sim.Config, seed uint64) (sim.RepResult, *obs.Telemetry) {
	t.Helper()
	sys, err := sim.NewSystem(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	rep := sys.Finish(sys.Horizon())
	return rep, sys.Telemetry()
}

// fold hands tel to a fresh merge as its one shard, as every run that
// builds one system does before it exports.
func fold(t *testing.T, tel *obs.Telemetry) *obs.Merged {
	t.Helper()
	m := obs.NewMerged()
	if err := tel.MergeInto(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTelemetryDoesNotChangeResults(t *testing.T) {
	base := smallConfig()
	off, telOff := runObserved(t, base, 7)
	if telOff != nil {
		t.Fatalf("telemetry must be nil when disabled")
	}

	on := base
	on.Obs = obs.Options{Enabled: true, SampleEvery: 25}
	got, tel := runObserved(t, on, 7)
	if tel == nil {
		t.Fatalf("telemetry missing on enabled run")
	}
	if !reflect.DeepEqual(off, got) {
		t.Fatalf("replication result changed with telemetry on:\noff: %+v\non:  %+v", off, got)
	}
	if tel.Ticks() == 0 {
		t.Fatalf("sampler never ticked over a 3100-unit horizon at cadence 25")
	}
}

func TestTelemetryExportsAreDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.Options{Enabled: true, SampleEvery: 25}

	export := func() (string, string, string, string) {
		_, tel := runObserved(t, cfg, 11)
		m := fold(t, tel)
		var prom, csv, spans strings.Builder
		if err := m.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := tel.Sampler().WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteSpans(&spans); err != nil {
			t.Fatal(err)
		}
		svg, err := m.Snapshot().Dashboard()
		if err != nil {
			t.Fatal(err)
		}
		return prom.String(), csv.String(), spans.String(), svg
	}
	p1, c1, s1, g1 := export()
	p2, c2, s2, g2 := export()
	if p1 != p2 {
		t.Fatalf("Prometheus exposition differs across identical runs")
	}
	if c1 != c2 {
		t.Fatalf("CSV time series differs across identical runs")
	}
	if s1 != s2 {
		t.Fatalf("span JSONL differs across identical runs")
	}
	if g1 != g2 {
		t.Fatalf("dashboard SVG differs across identical runs")
	}
	if !strings.HasPrefix(g1, "<svg ") || strings.Count(g1, "<svg ") != 1 {
		t.Fatalf("dashboard must be a single SVG document")
	}
	if !strings.Contains(p1, "sda_sched_enqueues_total") || !strings.Contains(p1, `sda_node_queue_depth{node="0"}`) {
		t.Fatalf("exposition missing expected instruments:\n%s", p1)
	}
	if !strings.HasPrefix(c1, "time,queue_node0,") {
		t.Fatalf("csv header unexpected: %q", c1[:60])
	}
}

func TestSpanLogShape(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.Options{Enabled: true}
	_, tel := runObserved(t, cfg, 3)
	m := fold(t, tel)

	var spans strings.Builder
	if err := m.WriteSpans(&spans); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	roots := map[uint64]string{} // span id -> kind, to resolve Root links
	sc := bufio.NewScanner(strings.NewReader(spans.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		var rec obs.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n, err)
		}
		if rec.Type != "span" {
			t.Fatalf("line %d: type %q, want span", n, rec.Type)
		}
		kinds[rec.Kind]++
		roots[rec.ID] = rec.Kind
		if rec.Start == nil {
			t.Fatalf("line %d: span without start", n)
		}
		if rec.Schema != obs.SchemaVersion {
			t.Fatalf("line %d: schema %d, want %d", n, rec.Schema, obs.SchemaVersion)
		}
		if rec.End != nil && !rec.Aborted && rec.Lateness == nil {
			t.Fatalf("line %d: finished span without lateness", n)
		}
		if rec.Aborted && rec.Lateness != nil {
			t.Fatalf("line %d: aborted span carries a lateness", n)
		}
		if rec.Kind == "stage" || rec.Kind == "subtask" {
			if rec.Root == 0 {
				t.Fatalf("line %d: %s span without root link", n, rec.Kind)
			}
			if roots[rec.Root] != "global" {
				t.Fatalf("line %d: root %d is %q, want global", n, rec.Root, roots[rec.Root])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no spans recorded")
	}
	for _, k := range []string{"local", "global", "subtask"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q spans in a mixed workload (kinds: %v)", k, kinds)
		}
	}
	if got := len(m.Snapshot().Spans); got != n {
		t.Fatalf("the fold's snapshot holds %d spans, JSONL had %d", got, n)
	}
	if !strings.Contains(m.Summary(), "slack") {
		t.Fatalf("summary missing slack line:\n%s", m.Summary())
	}
}

func TestDagRootSpansCarryShape(t *testing.T) {
	cfg := smallConfig()
	cfg.Spec.Factory = nil
	cfg.Spec.DagFactory = workload.LayeredDag{Layers: 3, MinWidth: 1, MaxWidth: 3, EdgeProb: 0.4}
	cfg.Obs = obs.Options{Enabled: true}
	_, tel := runObserved(t, cfg, 5)

	globals := 0
	for _, rec := range obs.Spans(tel) {
		if rec.Kind == "global" {
			globals++
			// A layered DAG's longest chain threads every layer, so the
			// depth is exactly the layer count; the width is a layer size.
			if rec.Depth != 3 {
				t.Fatalf("global span %d: depth %d, want 3", rec.ID, rec.Depth)
			}
			if rec.Width < 1 || rec.Width > 3 {
				t.Fatalf("global span %d: width %d outside [1, 3]", rec.ID, rec.Width)
			}
			continue
		}
		if rec.Depth != 0 || rec.Width != 0 {
			t.Fatalf("%s span %d carries DAG shape (%d, %d); only roots should",
				rec.Kind, rec.ID, rec.Depth, rec.Width)
		}
	}
	if globals == 0 {
		t.Fatalf("no global spans recorded for a DAG workload")
	}
}

func TestSpanCapDropsAndCounts(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.Options{Enabled: true, MaxSpans: 8}
	_, tel := runObserved(t, cfg, 3)
	if got := len(obs.Spans(tel)); got > 8 {
		t.Fatalf("span store exceeded cap: %d > 8", got)
	}
	if obs.DroppedSpans(tel) == 0 {
		t.Fatalf("expected dropped spans with an 8-span cap on a 3100-unit run")
	}
}
