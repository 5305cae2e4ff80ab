package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/serve"
	"repro/internal/sim"
)

// TestServeAndAttributionDoNotPerturb extends the observed-run golden
// check to the live observability path: attaching a serve.Hub (publishing
// a tail snapshot on every sampler tick) must leave the trace hash, the replication result, and the event
// count bit-identical to a plain run. This is the -serve flag's
// non-perturbation contract.
func TestServeAndAttributionDoNotPerturb(t *testing.T) {
	scs := loadAll(t)
	golden, err := ReadGolden(filepath.Join(scenarioDir, GoldenFile))
	if err != nil {
		t.Fatalf("ReadGolden: %v", err)
	}
	for _, sc := range scs {
		sc := sc
		if sc.IsStress() {
			continue // no trace/telemetry path for stress scenarios
		}
		t.Run(sc.Name, func(t *testing.T) {
			plain, err := Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			hub := serve.NewHub(0)
			fold := obs.NewMerged()
			info := serve.RunInfo{Label: sc.Name}
			out, tel, err := RunObservedWith(sc, obs.Options{SampleEvery: 25}, func(sys *sim.System) {
				info.Horizon = float64(sys.Horizon())
				hub.Attach(sys.Telemetry(), fold, info, 1)
			})
			if err != nil {
				t.Fatalf("RunObservedWith: %v", err)
			}
			if want := golden[sc.Name]; out.TraceHash != want {
				t.Errorf("served trace hash %s differs from golden %s", out.TraceHash, want)
			}
			if !reflect.DeepEqual(out.Rep, plain.Rep) {
				t.Errorf("served replication result differs:\nplain:  %+v\nserved: %+v", plain.Rep, out.Rep)
			}
			if out.TraceEvents != plain.TraceEvents {
				t.Errorf("served trace has %d events, plain %d", out.TraceEvents, plain.TraceEvents)
			}
			if hub.Publishes() == 0 {
				t.Fatalf("hub never published")
			}
			// The hub's live report must equal an offline analysis of the
			// same spans — /blame and the bundle's blame report agree by
			// construction.
			if err := tel.MergeInto(fold); err != nil {
				t.Fatal(err)
			}
			offline, err := attrib.Analyze(fold.Snapshot().Spans).JSON()
			if err != nil {
				t.Fatal(err)
			}
			hub.Finalize(fold, info)
			if string(hub.BlameJSON()) != string(offline) {
				t.Errorf("live blame snapshot differs from offline analysis")
			}
		})
	}
}

// TestDagForkjoinBlameGolden pins the full attribution report of the
// dag-forkjoin scenario. The report is deterministic, so it is compared
// byte-for-byte against a committed golden file; regenerate with
//
//	BLESS_BLAME=1 go test ./internal/scenario -run DagForkjoinBlameGolden
//
// after a deliberate behaviour change (and commit the diff).
func TestDagForkjoinBlameGolden(t *testing.T) {
	sc, err := Load(filepath.Join(scenarioDir, "dag_forkjoin.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, tel, err := RunObserved(sc, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rpt := attrib.Analyze(foldSpans(t, tel))

	// Acceptance criteria: every missed global has a primary cause and a
	// decomposition summing to its lateness within float tolerance.
	if rpt.MissedGlobals == 0 {
		t.Fatalf("dag-forkjoin produced no missed globals; the golden is vacuous")
	}
	for _, m := range rpt.Misses {
		if m.Cause == "" {
			t.Errorf("%s: miss without a primary cause", m.Task)
		}
		if sum := m.Wait + m.Overrun + m.SlackDeficit; math.Abs(sum-m.Lateness) > 1e-6 {
			t.Errorf("%s: wait %g + overrun %g + deficit %g != lateness %g",
				m.Task, m.Wait, m.Overrun, m.SlackDeficit, m.Lateness)
		}
	}

	got := rpt.Markdown()
	goldenPath := filepath.Join(scenarioDir, "blame_dag_forkjoin.golden.md")
	if os.Getenv("BLESS_BLAME") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden attribution report missing (run with BLESS_BLAME=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("attribution report drifted from golden %s;\nregenerate with BLESS_BLAME=1 if the change is deliberate", goldenPath)
	}
}

// TestCondDagBlameGolden pins the attribution report of the cond-dag
// scenario — conditional DAGs whose non-activated branches never appear in
// the realized task, so attribution only ever sees the vertices that ran.
// The decomposition identity (wait + overrun + deficit == lateness, to
// 1e-6) must hold for every miss, including aborted and censored ones from
// the scenario's local-abort mode. Regenerate with
//
//	BLESS_BLAME=1 go test ./internal/scenario -run CondDagBlameGolden
func TestCondDagBlameGolden(t *testing.T) {
	sc, err := Load(filepath.Join(scenarioDir, "cond_dag.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, tel, err := RunObserved(sc, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rpt := attrib.Analyze(foldSpans(t, tel))

	if rpt.MissedGlobals == 0 {
		t.Fatalf("cond-dag produced no missed globals; the golden is vacuous")
	}
	for _, m := range rpt.Misses {
		if m.Cause == "" {
			t.Errorf("%s: miss without a primary cause", m.Task)
		}
		if sum := m.Wait + m.Overrun + m.SlackDeficit; math.Abs(sum-m.Lateness) > 1e-6 {
			t.Errorf("%s: wait %g + overrun %g + deficit %g != lateness %g",
				m.Task, m.Wait, m.Overrun, m.SlackDeficit, m.Lateness)
		}
		// Only realized branch vertices may be blamed: the cond factory
		// names them r*/g*/m* and never emits a gate that was not taken.
		for _, p := range m.Path {
			if p.Task == "" {
				t.Errorf("%s: blame path has unnamed span", m.Task)
				continue
			}
			switch p.Task[0] {
			case 'r', 'g', 'm':
			default:
				t.Errorf("%s: blame path names unrealized vertex %q", m.Task, p.Task)
			}
		}
	}

	got := rpt.Markdown()
	goldenPath := filepath.Join(scenarioDir, "blame_cond_dag.golden.md")
	if os.Getenv("BLESS_BLAME") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden attribution report missing (run with BLESS_BLAME=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("attribution report drifted from golden %s;\nregenerate with BLESS_BLAME=1 if the change is deliberate", goldenPath)
	}
}

// foldSpans hands tel to a fresh fold, as every bundle writer does, and
// returns the fold's span log.
func foldSpans(t *testing.T, tel *obs.Telemetry) []obs.Record {
	t.Helper()
	fold := obs.NewMerged()
	if err := tel.MergeInto(fold); err != nil {
		t.Fatal(err)
	}
	return fold.Snapshot().Spans
}
