#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark (and the repository it
# measures) into build-bench/ on first use, then runs one workload:
#
#   bash bench/run.sh --workload static-ksp --seed 1 --seconds 15 --trace 0
#
# Workloads: static-ksp, district-ksp, rush-hour, remote-mixed (see
# bench/README.md). The last line of standard output is the JSON result;
# build output goes to standard error. Everything the build and the run
# write stays under build-bench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "bench/run.sh: no kspdg sources next to bench/ in $root" >&2
  exit 1
fi

build=build-bench
mkdir -p "$build/tmp" "$build/traces" "$build/sockets"
export TMPDIR="$root/$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j4 --target kspdg_perf >&2

export KSPDG_WORKER_BIN="$root/$build/kspdg/shard_worker"
exec "$build/kspdg_perf" --trace-dir "$build/traces" --socket-dir "$build/sockets" "$@"
