# Tier-1 verification plus the race-checked gate the concurrent experiment
# harness requires. `make check` is what a PR must keep green.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet race race-sharded bench bench-record bench-check huge huge-smoke fault-smoke fuzz profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails when gofmt would reformat a tracked Go file, listing them.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 -r $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# GATE names the differential gate and the tests that compare its rows'
# renders. race leaves them to race-sharded, which runs them once per width.
GATE = TestDifferential|TestGoldenHashes|TestEngineSwapBitIdentical|TestFig3ParallelBitIdentical

# The experiment harness fans simulation runs out across goroutines; every
# change must pass the race detector, not just the plain test run.
race:
	$(GO) test -race -skip '^($(GATE))$$' ./...

# race-sharded runs the differential gate, the tests that compare its rows
# and the engine's sharded tests under the race detector at two scheduler
# widths. GOMAXPROCS changes how shard worker goroutines interleave, so both
# widths must stay clean AND bit-identical — the tests themselves compare
# sharded output against the serial engine.
race-sharded:
	GOMAXPROCS=2 $(GO) test -race -count=1 -run '^TestShard|^($(GATE))$$' ./internal/sim/ ./internal/experiment/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run '^TestShard|^($(GATE))$$' ./internal/sim/ ./internal/experiment/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-record re-measures every cmd/enginebench scenario into
# results/bench.json: events/s, ns/event, bytes/event and allocs/event per
# scenario, engine core and intra-run worker count, plus wall time per run
# for whole-cluster scenarios and window statistics for sharded ones. The
# file names the machine and GOMAXPROCS it was measured on; record on the
# machine bench-check will run on.
bench-record:
	$(GO) run ./cmd/enginebench -mode record

# bench-check is the CI perf guard: re-measure the guarded wheel-core rows
# (events/s of cluster-8, node-tick-heavy and jitter-8, bytes/event of
# cluster-8 and jitter-8) and fail if any events/s fell more than 25% or any
# bytes/event rose more than 20% against results/bench.json. Every guard is
# reported before it exits.
bench-check:
	$(GO) run ./cmd/enginebench -mode check

# huge runs the extended scaling tier: the Allreduce sweep carried to 1024
# sixteen-way nodes (16384 ranks) on the sharded conservative-window core.
# GOMAXPROCS is pinned so the intra-run worker budget is honored even on
# small CI boxes.
huge:
	GOMAXPROCS=4 $(GO) run ./cmd/parsim run huge -huge -procs 4 -shard-procs 4 -v

# huge-smoke is the fast tier-1 variant of the same path: reduced node count,
# still sharded.
huge-smoke:
	GOMAXPROCS=2 $(GO) run ./cmd/parsim run huge -nodes 64 -calls 8 -seeds 1 -procs 2 -shard-procs 2

# fault-smoke exercises the resilience layer end to end: the fault-injection
# and quarantine test set under the race detector (crashes, drops, retries,
# partitions, stalls, supervisor respawns, checkpoint resume), then a small
# abl-fault sweep through the real CLI on the sharded core. The sweep's
# rendered bytes are also pinned by TestGoldenHashes, so this target is a
# smoke test, not the determinism gate.
fault-smoke:
	$(GO) test -race -count=1 -run 'Fault|Quarantine|Supervisor|Respawn|Checkpoint|Panic|Deadline' ./internal/...
	GOMAXPROCS=2 $(GO) run ./cmd/parsim run abl-fault -nodes 4 -calls 24 -seeds 1 -procs 2 -shard-procs 2

# fuzz runs every native fuzz target for 10s each: the /etc/poe.priority
# parser, the sweep checkpoint reader, parsim's interleaved flag parser, the
# timer wheel against the reference heap on decoded operation sequences, and
# the differential gate on small decoded Allreduce clusters.
# Their seed corpora also run under plain `go test`; a crasher the fuzzer
# finds is saved under the package's testdata/fuzz and then runs there too.
# Minimizing each new input is capped at 200 runs: uncapped, shrinking one
# input grown from the 64 KiB admin-file seed takes the whole 10s.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 200x
fuzz:
	$(FUZZ) -fuzz '^FuzzParseAdminFile$$' ./internal/cosched/
	$(FUZZ) -fuzz '^FuzzOpenCheckpoint$$' ./internal/experiment/
	$(FUZZ) -fuzz '^FuzzParseInterleaved$$' ./cmd/parsim/
	$(FUZZ) -fuzz '^FuzzWheelMatchesHeap$$' ./internal/sim/
	$(FUZZ) -fuzz '^FuzzDifferential$$' ./internal/experiment/

# profile runs a representative sweep under the CPU and allocation profilers
# and prints the top CPU consumers. Inspect interactively with
# `go tool pprof profiles/parsim.cpu`.
PROFILE_ARGS ?= run fig3 t2 -csv
profile:
	mkdir -p profiles
	$(GO) build -o profiles/parsim ./cmd/parsim
	./profiles/parsim $(PROFILE_ARGS) -cpuprofile profiles/parsim.cpu -memprofile profiles/parsim.mem > /dev/null
	$(GO) tool pprof -top -nodecount 25 profiles/parsim profiles/parsim.cpu

check: vet test race race-sharded
