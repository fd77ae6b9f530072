#!/bin/bash
# Sequential full-scale experiment runs for EXPERIMENTS.md.
# Re-baseline No.1: rerun everything after the counter-based RNG stream
# refactor (all sampled sequences changed; see EXPERIMENTS.md).
# Runs from the checkout that holds this script, wherever it is called from.
cd "$(dirname "$0")/.." || exit 1
run() {
  name=$1; shift
  echo "=== $name $* ===" >> results/rest.log
  go run ./cmd/parsim run "$name" "$@" > "results/${name}_full.txt" 2>> results/rest.log
  echo "EXIT=$? $name" >> results/rest.log
}
run t5   -full -calls 256 -seeds 1
run fig4 -full -seeds 1
run t3   -full -seeds 1 -seed 4
run abl-jitter -full -nodes 8 -seeds 1
run abl-ipi     -full -nodes 8 -seeds 1
run abl-bigtick -full -nodes 8 -seeds 1
run abl-ticks   -full -nodes 8 -seeds 1
run abl-clock   -full -nodes 8 -seeds 1
run fig1 -nodes 1 -calls 64 -seeds 1
run t4   -full -nodes 16 -seeds 1
run abl-duty    -full -nodes 8 -seeds 1
run t2   -full -seeds 1
run t1   -full -nodes 24 -seeds 2
run fig6 -full -seeds 2
echo ALLDONE >> results/rest.log
