# Tier-1 verification plus the race-checked gate the concurrent experiment
# harness requires. `make check` is what a PR must keep green.

GO ?= go

.PHONY: build test vet race race-sharded bench bench-engine bench-pdes bench-mem bench-check huge huge-smoke fault-smoke profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The experiment harness fans simulation runs out across goroutines; every
# change must pass the race detector, not just the plain test run.
race:
	$(GO) test -race ./...

# race-sharded re-runs the sharded-engine differential tests under the race
# detector at two scheduler widths. GOMAXPROCS changes how shard worker
# goroutines interleave, so both widths must stay clean AND bit-identical —
# the tests themselves compare sharded output against the serial engine.
race-sharded:
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Shard|BitIdentical' ./internal/sim/ ./internal/cluster/ ./internal/workload/ ./internal/experiment/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Shard|BitIdentical' ./internal/sim/ ./internal/cluster/ ./internal/workload/ ./internal/experiment/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-engine regenerates results/bench_engine.json: the two acceptance
# scenarios plus the engine micro-benchmarks, each measured under the
# timer-wheel core and the reference heap core in one process, with the
# recorded pre-change numbers (results/bench_baseline.json) merged in.
bench-engine:
	mkdir -p results
	$(GO) run ./cmd/enginebench -baseline results/bench_baseline.json -o results/bench_engine.json

# bench-pdes regenerates results/bench_pdes.json: the full-cluster scenarios
# measured serially and on the sharded conservative-window core at 2 and 4
# intra-run workers, with window statistics.
bench-pdes:
	mkdir -p results
	$(GO) run ./cmd/enginebench -mode pdes -o results/bench_pdes.json

# bench-mem regenerates results/bench_mem.json: bytes and allocations per
# simulated event on the cluster scenarios (including a 256-node one), plus
# testing.AllocsPerOp-style micro-benchmarks of the MPI hot path and the
# sharded window loop, compared against the recorded pre-flattening numbers
# (results/bench_mem_baseline.json).
bench-mem:
	mkdir -p results
	$(GO) run ./cmd/enginebench -mode mem -mem-baseline results/bench_mem_baseline.json -o results/bench_mem.json

# bench-check is the CI perf guard: re-measure the two acceptance scenarios
# wheel-only and fail if either loses more than 25% events/s against the
# committed results/bench_engine.json; guard the serial throughput of the
# pdes scenarios (plain and jittered) against results/bench_pdes.json; then
# guard bytes-per-event on the same scenarios against the committed
# results/bench_mem.json (fail on >20% allocation growth).
bench-check:
	$(GO) run ./cmd/enginebench -mode check -against results/bench_engine.json -pdes-against results/bench_pdes.json -mem-against results/bench_mem.json

# huge runs the extended scaling tier: the Allreduce sweep carried to 1024
# sixteen-way nodes (16384 ranks) on the sharded conservative-window core,
# with per-call timings streamed through online accumulators instead of
# retained. GOMAXPROCS is pinned so the intra-run worker budget is honored
# even on small CI boxes.
huge:
	GOMAXPROCS=4 $(GO) run ./cmd/parsim run huge -huge -procs 4 -shard-procs 4 -v

# huge-smoke is the fast tier-1 variant of the same path: reduced node count,
# still sharded, still streamed.
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
