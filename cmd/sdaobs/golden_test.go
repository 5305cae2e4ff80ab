package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// bundleGolden pins the SHA-256 of every file sdaobs writes for a set of
// runs chosen to exercise the span store's hard cases under a tight
// retention budget: local-abort retries, process-manager abort
// cascades, DAG vertex retirement, chaos-burst inject windows, and the
// cross-replication merge. Scenario runs also pin their exemplar
// selection and span-store counts as a direct run reports them
// ("exemplars+counts"). A change to the telemetry recording path must
// leave every one of these bytes untouched; the digests change only if
// an export format deliberately does.
var bundleGolden = []struct {
	name     string
	scenario string   // scenario file under testdata/scenarios, or ""
	args     []string // extra sdaobs flags
	want     map[string]string
}{
	{"overload-local-abort", "overload_local_abort.json", nil, map[string]string{
		"blame.json":        "697ba9cd1c84eeea0abdcc2c06decb8be18c2b4184a6dbc8f570e0da8d1c2c92",
		"blame.md":          "5c3d0d29a4b2d61e63e5aac61e51948cdfd3c5bed9307a63b1c14b2eda6fcb44",
		"dashboard.svg":     "eb2e92ee41b9fcd22a6967fd48beb102474cbdc9823eeefcd029ff59a5fc568b",
		"edges.jsonl":       "361ff08a2fff953a468a2789026d60c76c795dabdc4690ff02c78b5d603a4a88",
		"exemplars+counts":  "8f5d9c8a5b434566905ed5995bcd6c30d322dae7909e03b4bda51b58cc617c36",
		"exemplars.jsonl":   "12f2755718ecbbe0cefe577150189bd41b76c582ad7425e4316490543b2be269",
		"metrics.prom":      "7d0f973ae5559238862d8eb914e540e6c1a5c605c7c340651041c6f04ff511ce",
		"spans.jsonl":       "59c7073261053798b4a71211553b517c7a05bf0d799c1e318ee87acbb6a2efc6",
		"summary.txt":       "88d548ca668f9a86f298de16c0de1aeac83784a30bf74b5a1e69c1b9ad066605",
		"timeseries.csv":    "eccf033ab3b0f5847ad97c9c281237a3e797e32090fd903d7f316ca586dec452",
		"trace.chrome.json": "5fe3647251d5e1ed08cf597663b751e36ff03dad0bb1e0511d52cddecef757d5",
		"tracetree.jsonl":   "dd9148c8162655c1cef01e7e5e54e1f0c9b4599f928a2697a456552e489cff0e",
	}},
	{"overload-pm-abort", "overload_pm_abort.json", nil, map[string]string{
		"blame.json":        "0d291660e017f4283c44a5c557723899a8802e3c4b783943cb7471ef490f779f",
		"blame.md":          "f46c22ee9d9f13367d85477145a34058616f84371cc3f30ad453f377b79e2350",
		"dashboard.svg":     "e911669ef9317abd400ced8a232a3327cea15ea1132102e29aaaccbaea34113e",
		"edges.jsonl":       "7b8a75a9e02645ad98b10e46ad7f2b21c8a730b227497dd57c8bcdf6ad8f2cc2",
		"exemplars+counts":  "01a146573d15239e1e2c231234c82b1106bb3893e22e2b8e0d1a0b485549e69c",
		"exemplars.jsonl":   "1a4f97dd26d14ff2a87ce704b829be845f678a46cfca64310e722960870bf079",
		"metrics.prom":      "02346750ae574bcce73940f292708b6e634437a016b67e303d2e3a91a5042c9a",
		"spans.jsonl":       "e58cb73f36d3dac39a32584c03af4b9c1f8e31733b607ff0fcb13d82495184af",
		"summary.txt":       "f5055154c7da0bdd0604624aab26674c5cdda1af1804e95027a3bf2257255182",
		"timeseries.csv":    "cb2aab4ce72c9fd40ac67a81d3d4e8c48ef4fc453536ad176c8f1763c5429eea",
		"trace.chrome.json": "3a23d2318a94a27ae09f0a4539f6f3cc7edea64dbfb71b98b538105b4b2f203e",
		"tracetree.jsonl":   "05a5d4c500f87ba81770c23216eec2117e5bfa02615b278f9ed5717bc193e783",
	}},
	{"dag-forkjoin", "dag_forkjoin.json", nil, map[string]string{
		"blame.json":        "f3834127a3ebee8798697001e341619f99157e1459d57146f941e433d50a3f66",
		"blame.md":          "fc94eec1ce021a0d02fb189e7e4caf1455954eb5d689d62e1902c8216b9ffb79",
		"dashboard.svg":     "8a66d2296b1ff3d6f8f0ebd2239e442a1c8055fc88fdf88f1f4570a6056dfbfa",
		"edges.jsonl":       "f2601733395d1ab13085007b1d9629d761893526fd73bfd0ca526412a7dc04b2",
		"exemplars+counts":  "9160e5c7ac5d14ccfd72d0d2cd05a640f9ab8e9ffddda97cbb22c4f7ac66acc0",
		"exemplars.jsonl":   "f773ed015fced9c07a7b75ef9d3a63fd95653e767a59e77dc14af176fd726150",
		"metrics.prom":      "844234e8c02b6c24c1f582089972351b62ccad93fe856b439dd2f46f64ed5570",
		"spans.jsonl":       "e998babb0b0f0fadad9d141882ce455f25b5d81ba46a569efe7f007890db6b80",
		"summary.txt":       "0663a5a85bb218022928150816c4f6c175fa332cd546ab9f9b57d2066912fb06",
		"timeseries.csv":    "90ba22845e327d0e6522dbb14254ff8ddecf3a5ac9a1cfae5650c5436987cb46",
		"trace.chrome.json": "1e5275f5f2dcace2cd9dd72e80edc8e7a12bfc8c14c6c0870236b8e905b87b03",
		"tracetree.jsonl":   "b2f980897b213983d434932c5b078f02f97a91a7bed1ef5dd00b93a7b91af787",
	}},
	{"cond-dag", "cond_dag.json", nil, map[string]string{
		"blame.json":        "2188d3742ea96156df712a9a08e85800e70cfdf75cddbb7a07e47e491053b958",
		"blame.md":          "29663f9ee0498fd267154a1b9b5885830ec83505256cd2b73575659ed9355dfe",
		"dashboard.svg":     "ae177b732218162af4669511557dcc78a7915cc2ecfc743ab1ca5e68c63c4bd5",
		"edges.jsonl":       "12a7847e1c83dbb148f9cf703f63e7a8ced154e2ee45c6fc80e4720317a477ae",
		"exemplars+counts":  "8fc95a55aa0f0f6b50d8fad3d557f437d270af07953ffd6067d9bb17676b1342",
		"exemplars.jsonl":   "b77a16677e9144e99485d8a7813163f26263521753ed22b0b4b128bb49fd1b94",
		"metrics.prom":      "bf982c7ede01f901607a90bd8c3da8acacf5234189b478e809ca2c74dbd84078",
		"spans.jsonl":       "17990f517d34ee51202a1de56f841f6e9cf3de501819c8e2d66fb46a343faba6",
		"summary.txt":       "14aa1934817ec68377a078df490a56d01d6e0d5ebd1efecb0e25640600fc1173",
		"timeseries.csv":    "8d6bdb873a9bb46293cde3f3bd1e75c90a4774a54eceacb393d7396a7be51355",
		"trace.chrome.json": "5f587e0f2c865c306d36b473bce9ba605df1f1f88603e9911c82805704ab22c8",
		"tracetree.jsonl":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	}},
	{"burst-global", "burst_global.json", nil, map[string]string{
		"blame.json":        "cfc2fe2fdcc7211aaa53f4763cb9dbf3d81ee431a68da8c162da6d5f67cc2e9b",
		"blame.md":          "fa8a634984b3cf26313c7990a7c88c2a01cfb34eed80e93cf10f55c65784c601",
		"dashboard.svg":     "20fcc57c89372a13f45b4f63e28ad7ace906a7737b631b9835cd1a45b1293c88",
		"edges.jsonl":       "72474fae42b3e6369e454ad23302abd43a1e02ccea81e510aa2c20b2fbbc35ae",
		"exemplars+counts":  "f908ddfdec3f189e2ed6fa5ae2c299acc6004a5e5c26b4a2bf171d5f5169e6cc",
		"exemplars.jsonl":   "f06d2f9bb3b77b9b141f8171fa3d726b0dcdd842966a82bf59ac9d8afbc88a0e",
		"metrics.prom":      "ef0d5add21c1c350ac12b27ec7f1e02959a23b20f331d36def8c80ecfb9cd17e",
		"spans.jsonl":       "8de946398c9a18ac30a597861d76ae9d4c53ba0d875bf370520d7eb1a84b9a21",
		"summary.txt":       "85f2f1fb3e2f8abcef9cba9d1060d6ad8cb5098d91f3fec4cf5adfd45c349f19",
		"timeseries.csv":    "a2f8f7916059dd98d14182c1b6a838739daabb754f6d33a5c764370d404fadfe",
		"trace.chrome.json": "9a4b586074e0285ef6175b5db5c0dc59885f20d74879ddcc25d2233e13d4080e",
		"tracetree.jsonl":   "d0b3ae6d82189b39f555b7066061fc15317024ceb7299a49c6c75951815674a8",
	}},
	{"synthetic-merged", "", []string{
		"-load", "0.6", "-duration", "2000", "-warmup", "100",
		"-reps", "3", "-workers", "1", "-obs-max-spans", "64",
	}, map[string]string{
		"blame.json":        "85ded6427e50013c3c8365c25aa062484ed897b918d1462529752f6f50e1d89d",
		"blame.md":          "174531f14cf50ca32f4a97944284c3821d5cf1dad696264fcd19c81effb37ede",
		"dashboard.svg":     "8fdde4bdb01490b46b306a2506eb63da1216648daaaab9bd7a9be11ee63eea3c",
		"edges.jsonl":       "45b54042c07a245cbfe551a252d6cc8a999b7e21591ed139ccfaa9c93205785b",
		"exemplars.jsonl":   "a3b863fe37e52fb3cd28808c576f8fb4249c23641366bafca4da24a0dcfd7d20",
		"metrics.prom":      "0019e6ea998d243a7cedc3de74de1f47a32ea8d8677ea7130d9fa720571d9fa6",
		"spans.jsonl":       "39f84c4c6a0ccb0d22339e5be4f83c1949294bafc37472d6f70f424664d45733",
		"summary.txt":       "b3a95e1acdbd0502b14250e2d0fe9a3ce9c78cb1386d432c605dffed6855b57b",
		"trace.chrome.json": "12a36263f5fb152d1e3b72e33879644d14201b2986f6fd3a4fd2abbadeb8480a",
		"tracetree.jsonl":   "cb2c0fb737dce12995fa4b57f4a428f13293171c74ae96b05205201e30b0737b",
	}},
}

// goldenMaxSpans is the retention budget of the scenario runs: small
// enough that open spans are evicted and closed later.
const goldenMaxSpans = 50

// TestExportBundleGolden runs each pinned configuration and compares the
// digest of every written file, and the set of files itself, against
// the recorded values.
func TestExportBundleGolden(t *testing.T) {
	for _, tc := range bundleGolden {
		t.Run(tc.name, func(t *testing.T) {
			got := bundleDigests(t, tc.scenario, tc.args)
			names := make([]string, 0, len(got))
			for name := range got {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if want, ok := tc.want[name]; !ok {
					t.Errorf("unexpected export %q: %q,", name, got[name])
				} else if got[name] != want {
					t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
				}
			}
			for name := range tc.want {
				if _, ok := got[name]; !ok {
					t.Errorf("missing export %s", name)
				}
			}
		})
	}
}

// bundleDigests runs sdaobs into a fresh directory and returns the
// SHA-256 of every file it wrote, by name, plus the exemplar digest of a
// direct scenario run.
func bundleDigests(t *testing.T, scen string, args []string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	mustRun(t, goldenArgs(dir, scen, args)...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]string, len(entries)+1)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sums[e.Name()] = sha256Hex(b)
	}
	if scen != "" {
		sums["exemplars+counts"] = exemplarDigest(t, filepath.Join("..", "..", "testdata", "scenarios", scen))
	}
	return sums
}

// goldenArgs returns the sdaobs command line that writes the bundle of
// a bundleGolden case into dir.
func goldenArgs(dir, scen string, args []string) []string {
	args = append([]string{"-out", dir}, args...)
	if scen != "" {
		path := filepath.Join("..", "..", "testdata", "scenarios", scen)
		args = append(args, "-scenario", path, "-obs-max-spans", fmt.Sprint(goldenMaxSpans))
	}
	return args
}

// mustRun runs sdaobs and returns what it printed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\noutput:\n%s", args, err, out.String())
	}
	return out.String()
}

// TestFromRederivesBundle re-derives the bundle of every pinned case —
// the merged run and the tight-budget scenario shards — and of one
// single shard that evicts nothing with -from: the four derived files
// must match the bundle's own byte for byte.
func TestFromRederivesBundle(t *testing.T) {
	type runCase struct {
		name, scenario string
		args           []string
	}
	cases := []runCase{{"unbudgeted-shard", "", []string{"-load", "0.6", "-duration", "2000", "-warmup", "100"}}}
	for _, tc := range bundleGolden {
		cases = append(cases, runCase{tc.name, tc.scenario, tc.args})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bundle, rederived := t.TempDir(), t.TempDir()
			mustRun(t, goldenArgs(bundle, tc.scenario, tc.args)...)
			mustRun(t, "-from", bundle, "-out", rederived)
			for _, name := range []string{"blame.md", "blame.json", "tracetree.jsonl", "trace.chrome.json"} {
				want, err := os.ReadFile(filepath.Join(bundle, name))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(rederived, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: re-derived file differs from the bundle's", name)
				}
			}
		})
	}
}

// exemplarDigest runs the scenario observed at the golden budget and
// hashes its exemplar records and span-store counts.
func exemplarDigest(t *testing.T, path string) string {
	t.Helper()
	sc, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, tel, err := scenario.RunObserved(sc, obs.Options{
		Enabled: true, SampleEvery: 50, MaxSamples: 4096, MaxSpans: goldenMaxSpans,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fold := obs.NewMerged()
	if err := tel.MergeInto(fold); err != nil {
		t.Fatal(err)
	}
	snap := fold.Snapshot()
	var buf bytes.Buffer
	for _, rec := range snap.Exemplars.Records() {
		if err := obs.WriteRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&buf, "open %d retained %d total %d dropped %d edges-dropped %d\n",
		snap.OpenSpans, snap.Retained, snap.TotalSpans,
		counterTotal(snap, "sda_spans_dropped_total"), counterTotal(snap, "sda_edges_dropped_total"))
	return sha256Hex(buf.Bytes())
}

// counterTotal sums the counters named name in snap over every label
// set.
func counterTotal(snap *obs.Snapshot, name string) uint64 {
	var n uint64
	for _, c := range snap.Registry.Counters {
		if c.Name == name {
			n += c.V
		}
	}
	return n
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
