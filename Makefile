GO ?= go

.PHONY: check vet build test race scenarios bless bench bench-record bench-compare bench-e2e-test profile obs blame stress stress-smoke trace flight

# check runs exactly what CI runs.
check: vet build race scenarios

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scenarios runs the fault-injection suite against the golden hashes.
scenarios:
	$(GO) run ./cmd/sdascen -v

# stress runs the full-size stress scenarios (10k/5k/1k-node fleets
# under seeded chaos) with per-replication metrics. No golden hashes:
# stress runs are judged by invariants, the oracle and the Assert bands.
stress:
	$(GO) run ./cmd/sdascen -v stress-fleet-10k stress-zone-5k stress-coldstart-1k

# stress-smoke is the CI determinism gate: run the 5k-node zone-failure
# scenario twice — sequentially and on 4 replication workers — and
# require the deterministic outcome summaries to be byte-identical.
stress-smoke:
	$(GO) run ./cmd/sdascen -stress-workers 1 -summary stress-smoke-a.txt stress-zone-5k
	$(GO) run ./cmd/sdascen -stress-workers 4 -summary stress-smoke-b.txt stress-zone-5k
	cmp stress-smoke-a.txt stress-smoke-b.txt
	@rm -f stress-smoke-a.txt stress-smoke-b.txt
	@echo "stress-smoke: summaries byte-identical at Workers=1 and Workers=4"

# bless re-records the golden trace hashes after a deliberate behaviour
# change. Inspect and commit the golden.txt diff.
bless:
	$(GO) run ./cmd/sdascen -bless

bench:
	$(GO) test -bench=. -benchmem

# bench-record runs the guarded benchmark subset and appends the next
# BENCH_<n>.json snapshot to the committed trajectory. Snapshots are
# recorded at GOMAXPROCS=2, as CI compares them, so per-worker
# allocations match.
bench-record:
	GOMAXPROCS=2 $(GO) run ./cmd/sdabench -record

# bench-compare runs the same subset and fails on a >25% ns/op or >10%
# allocs/op regression against the latest committed snapshot.
bench-compare:
	GOMAXPROCS=2 $(GO) run ./cmd/sdabench -compare -q

# bench-e2e-test runs the end-to-end benchmark's own tests. bench/ is a
# separate Go module (repro/bench), so `go test ./...` at the root skips it.
bench-e2e-test:
	cd bench && $(GO) test ./...

# profile captures CPU and heap profiles plus an execution trace of the
# guarded benchmark subset. Inspect with: go tool pprof cpu.pprof
profile:
	$(GO) run ./cmd/sdabench -q -cpuprofile cpu.pprof -memprofile mem.pprof -exectrace exec.trace
	@echo "wrote cpu.pprof mem.pprof exec.trace (go tool pprof cpu.pprof)"

# obs exports the full telemetry bundle (spans, Prometheus metrics, CSV
# time series, SVG dashboard) of the baseline scenario into obs-out/.
obs:
	$(GO) run ./cmd/sdaobs -scenario testdata/scenarios/baseline_div.json -out obs-out

# blame exports the dag-forkjoin scenario's spans and prints the
# miss-cause attribution report (cause taxonomy and decomposition in
# docs/OBSERVABILITY.md).
blame:
	$(GO) run ./cmd/sdaobs -scenario testdata/scenarios/dag_forkjoin.json -out blame-out
	$(GO) run ./cmd/sdablame blame-out/spans.jsonl

# trace assembles the causal trace of the dag-forkjoin scenario (trees
# as JSONL plus a Chrome trace-event file) and a synthetic sdatrace run.
# Load trace-out/trace.chrome.json in https://ui.perfetto.dev.
trace:
	@mkdir -p trace-out
	$(GO) run ./cmd/sdaobs -scenario testdata/scenarios/dag_forkjoin.json -out trace-out
	$(GO) run ./cmd/sdatrace -psp DIV-1 -until 2000 -chrome trace-out/sdatrace.chrome.json -tree trace-out/sdatrace.trees.jsonl

# flight runs the full-size stress scenarios with the DES-kernel flight
# recorder attached and writes each calendar report — event mix, record
# pool and calendar depth (<name>.flight.md + .prom) — into flight-out/.
flight:
	$(GO) run ./cmd/sdascen -flight flight-out stress-fleet-10k stress-zone-5k stress-coldstart-1k
