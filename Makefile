GO ?= go

.PHONY: all build vet test race bench-smoke bench bench-json bench-gate check golden fuzz serve-smoke crash-smoke crash-chaos perfbench-check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Quick benchmark pass: compiles every benchmark and runs one iteration.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Full benchmark suite (regenerates the paper's tables and figures).
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Headline benchmarks -> JSON trajectory artifact (BENCH_PR10.json).
# Override: make bench-json BENCHTIME=1x BENCHOUT=/tmp/bench.json
BENCHTIME ?= 100x
BENCHOUT ?= BENCH_PR10.json
bench-json:
	./scripts/bench-json.sh -t $(BENCHTIME) -o $(BENCHOUT)

# Perf regression gate: rerun the headline benchmarks and fail if any
# shared benchmark is >25% slower than the newest checked-in
# BENCH_PR*.json run (skipped with a warning on a different CPU model).
# Override: make bench-gate BENCHTIME=1x GATEBASE=BENCH_PR9.json
GATEBASE ?=
bench-gate:
	./scripts/bench-gate.sh -t $(BENCHTIME) $(if $(GATEBASE),-f $(GATEBASE))

# Vet and test the end-to-end benchmark (perfbench/, a Go module of its
# own that the root `go test ./...` never reaches) against this checkout,
# with the environment perfbench/run.sh builds it in, so a program change
# that breaks the benchmark's build fails here instead of in a benchmark
# run. Artifacts stay under the git-ignored .bench_build/.
PERFBENCH_OUT = $(CURDIR)/.bench_build/perfbench
PERFBENCH_ENV = GOCACHE=$(PERFBENCH_OUT)/gocache GOTMPDIR=$(PERFBENCH_OUT)/gotmp \
	GOPATH=$(PERFBENCH_OUT)/gopath GOMODCACHE=$(PERFBENCH_OUT)/gopath/pkg/mod GOFLAGS= \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
perfbench-check:
	mkdir -p $(PERFBENCH_OUT)/gocache $(PERFBENCH_OUT)/gotmp $(PERFBENCH_OUT)/gopath
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...

# Regenerate golden files after a deliberate formatter change.
golden:
	$(GO) test ./internal/expt -run Golden -update

# Short fuzz pass over the untrusted-input parsers (roadnet text, DIMACS,
# traffic profiles, workload stream, trip CSV, serve snapshot + request
# bodies) and the CCH customization equivalence invariant. `go test` alone
# replays only the seed corpus.
fuzz:
	$(GO) test -fuzz FuzzRead$$ -fuzztime 10s ./internal/roadnet
	$(GO) test -fuzz FuzzLoadDIMACS -fuzztime 10s ./internal/roadnet
	$(GO) test -fuzz FuzzReadTrafficProfile -fuzztime 10s ./internal/roadnet
	$(GO) test -fuzz FuzzReadStream -fuzztime 10s ./internal/workload
	$(GO) test -fuzz FuzzReadTripCSV -fuzztime 10s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzReadSnapshot -fuzztime 10s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzRequestBody -fuzztime 10s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzCCHCustomize -fuzztime 10s ./internal/shortest
	$(GO) test -run xxx -fuzz FuzzReadWAL -fuzztime 10s ./internal/wal

# End-to-end check of the online dispatch service: start urpsm-serve on a
# fixture network, lockstep-replay 1500 requests (bit-identical to the
# offline engine), graceful shutdown, snapshot warm restart.
serve-smoke:
	./scripts/serve-smoke.sh

# Crash-recovery equivalence: SIGKILL the real daemon at seeded points of
# a 1500-request lockstep replay, restart on the same WAL dir, and require
# the decision stream to be byte-identical to an uninterrupted run (which
# itself must match the offline engine bit-exactly). Fixed seed for CI;
# crash-chaos re-rolls the kill schedule every invocation.
crash-smoke:
	./scripts/crash-smoke.sh

crash-chaos:
	./scripts/crash-smoke.sh -s $$(date +%s) -k 8

check: build vet test race
