#!/usr/bin/env bash
# Build perf_suite (a Release CMake build over the repository's solver
# libraries) and run it from the repository root.
#
#   bench/perf_suite/run.sh                      # every workload, seed 0
#   bench/perf_suite/run.sh --workload clamr_amr_ckpt_mixed --seed 3 \
#       --seconds 25 --trace 0
#   bench/perf_suite/run.sh --quick | --self-test | --list
#   bench/perf_suite/run.sh --compare setA/ setB/
#
# Build output goes to build/perf_suite/build.log; stdout carries only
# the suite's report, whose last line is the JSON result.
set -euo pipefail

suite_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$suite_dir/../.." && pwd)"
build="$root/build/perf_suite"
mkdir -p "$build"
log="$build/build.log"

jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  if ! cmake -S "$suite_dir" -B "$build" "${generator[@]}" \
       -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    # A half-configured tree would be taken as configured next time.
    rm -f "$build/CMakeCache.txt"
    echo "perf_suite: configure failed (see $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target perf_suite -j "$jobs" >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "perf_suite: build failed (see $log)" >&2
  exit 1
fi

cd "$root"
if [ $# -eq 0 ]; then
  status=0
  for w in $("$build/perf_suite" --list); do
    "$build/perf_suite" --workload "$w" || status=1
  done
  exit $status
fi
exec "$build/perf_suite" "$@"
