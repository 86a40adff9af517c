#!/usr/bin/env bash
# Tier-1 gate in one shot: configure, build, run the test suite, then a
# bench_micro pass that writes throughput + allocation-discipline numbers
# to BENCH_hotpath JSON (compare against the committed baseline at the repo
# root; DESIGN.md §8 explains the fields).
#
# Usage: tools/run_tier1.sh [build-dir] [sanitizers] [ctest-filter]
#   build-dir    defaults to "build"
#   sanitizers   optional RCAST_SANITIZE value (e.g. "address,undefined");
#                sanitized runs skip the benchmark pass.
#   ctest-filter optional ctest -R regex; CI's TSan leg uses it to run just
#                the multi-threaded suites (campaign runner, serving, sharded
#                executor, ...).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SANITIZE="${2:-}"
FILTER="${3:-}"

CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release)
if [[ -n "$SANITIZE" ]]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=RelWithDebInfo "-DRCAST_SANITIZE=$SANITIZE")
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Parameter-registry gates: the registry must be internally consistent (it
# runs under whatever sanitizer this leg built with), and the generated
# parameter reference in EXPERIMENTS.md must match it.
"./$BUILD_DIR/tools/rcast_params" --self-check
"./$BUILD_DIR/tools/rcast_params" --check=EXPERIMENTS.md

CTEST_ARGS=(--test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure)
if [[ -n "$FILTER" ]]; then
  CTEST_ARGS+=(-R "$FILTER")
fi
ctest "${CTEST_ARGS[@]}"

if [[ -z "$SANITIZE" ]]; then
  RCAST_BENCH_JSON="${RCAST_BENCH_JSON:-$BUILD_DIR/BENCH_hotpath.json}" \
    "./$BUILD_DIR/bench/bench_micro" --benchmark_min_time=0.5
  echo "tier-1 OK; benchmark record: ${RCAST_BENCH_JSON:-$BUILD_DIR/BENCH_hotpath.json}"
else
  echo "tier-1 OK under RCAST_SANITIZE=$SANITIZE (benchmarks skipped)"
fi
