package scenario

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestObservedRunsMatchGolden proves that enabling the telemetry layer
// does not perturb the simulation: every shipped scenario reproduces its
// golden trace hash and the exact replication result with obs on, even
// though sampler ticks interleave with model events in the calendar.
func TestObservedRunsMatchGolden(t *testing.T) {
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
			out, tel, err := RunObserved(sc, obs.Options{SampleEvery: 25})
			if err != nil {
				t.Fatalf("RunObserved: %v", err)
			}
			if tel == nil {
				t.Fatalf("RunObserved returned no telemetry")
			}
			if want := golden[sc.Name]; out.TraceHash != want {
				t.Errorf("observed trace hash %s differs from golden %s", out.TraceHash, want)
			}
			if !reflect.DeepEqual(out.Rep, plain.Rep) {
				t.Errorf("observed replication result differs:\nplain:    %+v\nobserved: %+v", plain.Rep, out.Rep)
			}
			if out.TraceEvents != plain.TraceEvents {
				t.Errorf("observed trace has %d events, plain %d", out.TraceEvents, plain.TraceEvents)
			}
			fold := obs.NewMerged()
			if err := tel.MergeInto(fold); err != nil {
				t.Fatal(err)
			}
			if fold.Snapshot().Registry.Counters == nil || tel.Ticks() == 0 {
				t.Errorf("telemetry collected nothing (ticks=%d)", tel.Ticks())
			}
		})
	}
}
