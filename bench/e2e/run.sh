#!/usr/bin/env bash
# Build and run the end-to-end benchmark from the repository root.
#
#   bench/e2e/run.sh [--seed S] [--runs K] [--workload W] [--trace [0|1]]
#                    [--repeat-check] [--seconds N]
#
# Configures a RelWithDebInfo build of bench/e2e (which compiles src/)
# into build/e2e/, then runs each selected workload K times, each run
# in its own process. Every run prints "workload metric value unit"
# lines and, last, a one-line JSON summary of the run; its full results
# go to build/e2e/results/. With more than one run, a summary (median
# and quartiles per metric) is written there too.
#
# A run does a fixed amount of work per workload (10-25 s on a 4-vCPU
# host), so the parent and a change measure the same episodes whatever
# the host's speed. --seconds N is accepted for harnesses that pass a
# run length and does not change that work.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

seed=1
runs=1
workload=all
trace=0
flags=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --seconds) shift 2 ;;
    --trace)
      trace=1
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift; fi
      shift ;;
    --repeat-check) flags+=(--repeat-check); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f src/CMakeLists.txt ]]; then
  echo "run.sh: src/ not found under $root; run from a full checkout" >&2
  exit 2
fi

build=build/e2e
# Compiler temporaries stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$root/$build/tmp"
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

if [[ "$workload" == all ]]; then
  mapfile -t workloads < <("$build/vp_bench" --list)
else
  workloads=("$workload")
fi

results="$build/results"
mkdir -p "$results"
tag=""
if [[ "$trace" == 1 ]]; then
  flags+=(--trace)
  tag="-trace"
fi
files=()
for w in "${workloads[@]}"; do
  for ((r = 1; r <= runs; r++)); do
    out="$results/$w-seed$seed-run$r$tag.json"
    "$build/vp_bench" --workload "$w" --seed "$seed" "${flags[@]}" \
      --out "$out"
    files+=("$out")
  done
done

if [[ ${#files[@]} -gt 1 ]]; then
  summary="$results/summary-seed$seed$tag.json"
  "$build/vp_bench" --summarize "$summary" "${files[@]}"
  echo "summary: $summary" >&2
fi
