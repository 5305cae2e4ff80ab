package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// outcomeDigests pins every shipped scenario's Outcome: the regular
// scenarios at full size, the stress scenarios at ApplyStressScale(20).
// A digest moves only when a run's observable result moves, so a change
// to the runner that keeps this table passing keeps every outcome.
var outcomeDigests = map[string]string{
	"baseline-div":         "5ef54772fe72c9ba",
	"burst-global":         "cf0938061cb2d8b2",
	"burst-local":          "ddf007c048941ac6",
	"cascade-mixed":        "66e0707f2ca5593e",
	"cond-dag":             "5988d8e7abcdc4fd",
	"crash-restart":        "0b41ea839c0889e4",
	"dag-forkjoin":         "03ddf6084003013f",
	"degrade-recover":      "9cddc8d5ee868a32",
	"gf-band":              "06e9f9f4a9181e34",
	"gf-delta-early-vdl":   "b438f6bf8946362f",
	"multiserver-crash":    "044735557ea5ec95",
	"overload-local-abort": "7f997b92731b3cc9",
	"overload-pm-abort":    "0b7b986625f52dd6",
	"strategy-swap":        "b06a16d611d321a9",
	"stress-coldstart-1k":  "aa76247e59dcb5d8",
	"stress-fleet-10k":     "632e1d542efe3b62",
	"stress-zone-5k":       "60d96208ba57759c",
}

// outcomeDigest hashes what a caller can read off an Outcome: the
// summary, the trace hash and event count, the oracle's check count,
// the replication results, and the failure and violation lists.
func outcomeDigest(o *Outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00", o.Summary(), o.TraceHash, o.TraceEvents, o.OracleChecks)
	fmt.Fprintf(h, "%+v\x00%+v\x00%q\x00%q", o.Rep, o.Reps, o.Failures, o.Violations)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestOutcomeDigests runs every shipped scenario and compares its
// Outcome digest with the pinned one. Stress scenarios run at one and at
// four replication workers, which must agree.
func TestOutcomeDigests(t *testing.T) {
	scs := loadAll(t)
	if len(scs) != len(outcomeDigests) {
		t.Errorf("%d shipped scenarios, %d pinned digests", len(scs), len(outcomeDigests))
	}
	for _, sc := range scs {
		want, ok := outcomeDigests[sc.Name]
		if !ok {
			t.Errorf("no pinned digest for %q", sc.Name)
			continue
		}
		if !sc.IsStress() {
			out, err := Run(sc)
			if err != nil {
				t.Fatalf("%s: Run: %v", sc.Name, err)
			}
			if got := outcomeDigest(out); got != want {
				t.Errorf("%s: outcome digest %s, pinned %s", sc.Name, got, want)
			}
			continue
		}
		sc.ApplyStressScale(20)
		for _, workers := range []int{1, 4} {
			out, err := RunStress(sc, workers)
			if err != nil {
				t.Fatalf("%s: RunStress(workers=%d): %v", sc.Name, workers, err)
			}
			if got := outcomeDigest(out); got != want {
				t.Errorf("%s at %d workers: outcome digest %s, pinned %s", sc.Name, workers, got, want)
			}
		}
	}
}
