#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then runs
# it with the given flags, for example:
#
#   bash perfbench/run.sh --workload allreduce-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a coschedsim checkout. The Go build cache, the
# binary and the CPU profiles go to $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a coschedsim checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$PWD/$out
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
