GO ?= go

.PHONY: check fmt vet build test examples race scenarios report-drift results-drift bless bench bench-record bench-compare bench-e2e-test profile obs blame stress stress-smoke trace flight

# check runs the local steps of CI's test job: gofmt, vet, build, the
# root module's tests, the example programs, the bench/ module's vet and
# tests, the scenario golden suite and the reproduction-report drift
# guard. It leaves out that job's fuzz smokes and staticcheck, and CI's
# other jobs: the race detector (make race), the 386 leg, the
# merged-telemetry guards, the blame, stress and trace smokes, and the
# benchmark smoke.
DERIVED = blame.md blame.json tracetree.jsonl trace.chrome.json

check: fmt vet build test examples bench-e2e-test scenarios report-drift

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples builds and runs every program under examples/, the only
# programs built on the root sda facade; each must exit 0.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

race:
	$(GO) test -race ./...

# scenarios runs the fault-injection suite against the golden hashes.
scenarios:
	$(GO) run ./cmd/sdascen -v

# report-drift fails when the committed reproduction report is not what
# the code prints.
report-drift:
	$(GO) run ./cmd/sdareport -duration 100000 -reps 2 | cmp - results/reproduction_report.md

# results-drift fails when the committed full experiment output is not
# what `sdaexp -exp all` prints at default fidelity (about 2 minutes on
# 2 vCPUs, so check leaves it out).
results-drift:
	$(GO) run ./cmd/sdaexp -exp all | cmp - results/full_results.txt

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

# bench-e2e-test vets and runs the end-to-end benchmark's own tests.
# bench/ is a separate Go module (repro/bench), so `go test ./...` at the
# root skips it.
bench-e2e-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# profile captures CPU and heap profiles plus an execution trace of the
# guarded benchmark subset. Inspect with: go tool pprof cpu.pprof
profile:
	$(GO) run ./cmd/sdabench -q -cpuprofile cpu.pprof -memprofile mem.pprof -exectrace exec.trace
	@echo "wrote cpu.pprof mem.pprof exec.trace (go tool pprof cpu.pprof)"

# obs exports the full telemetry bundle (spans, Prometheus metrics, CSV
# time series, SVG dashboard) of the baseline scenario into obs-out/.
obs:
	$(GO) run ./cmd/sdaobs -scenario testdata/scenarios/baseline_div.json -out obs-out

# blame exports the dag-forkjoin scenario's bundle, re-derives its
# miss-cause report and trace trees offline with sdaobs -from, checks
# them against the bundle's own and prints the report (cause taxonomy
# and decomposition in docs/OBSERVABILITY.md).
blame:
	$(GO) run ./cmd/sdaobs -scenario testdata/scenarios/dag_forkjoin.json -out blame-out
	$(GO) run ./cmd/sdaobs -from blame-out -out blame-out/rederived
	for f in $(DERIVED); do cmp blame-out/$$f blame-out/rederived/$$f || exit 1; done
	cat blame-out/blame.md

# trace assembles the causal trace (trees as JSONL plus a Chrome
# trace-event file) of the dag-forkjoin scenario and of a short
# synthetic run. Load trace-out/trace.chrome.json in
# https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/sdaobs -scenario testdata/scenarios/dag_forkjoin.json -out trace-out
	$(GO) run ./cmd/sdaobs -k 3 -n 3 -load 0.7 -seed 7 -psp DIV-1 -duration 2000 -warmup 0 -out trace-out/synthetic

# flight runs the full-size stress scenarios with the DES-kernel flight
# recorder attached and writes each calendar report — event mix, record
# pool and calendar depth (<name>.flight.md + .prom) — into flight-out/.
flight:
	$(GO) run ./cmd/sdascen -flight flight-out stress-fleet-10k stress-zone-5k stress-coldstart-1k
