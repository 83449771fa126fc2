#!/usr/bin/env bash
# Records the benchmark at the checked-out commit: N runs of
# `bench/suite/run.py --workload W --seed 7 --seconds 10 --trace 0` per
# workload, written to BENCH_<W>.json at the repository root with the
# commit, the host's core count (`nproc`), the first run's `stamp:` line,
# each run's outcome_digest, attempted and failed operations and final
# JSON line, and per end-to-end metric the median and quartiles over the
# runs (scripts/bench_stats.py, shared with ab_bench.sh). Run it on a clean tree, so the recorded commit is the
# code measured, and commit the files after it.
# Usage: scripts/record_bench.sh [--reps N] [WORKLOAD...]
#        (default: 1 run of every workload BENCHMARK.json lists)
set -euo pipefail
cd "$(dirname "$0")/.."

reps=1
if [ "${1:-}" = "--reps" ]; then
  if [ "$#" -lt 2 ] || ! [[ "$2" =~ ^[1-9][0-9]*$ ]]; then
    echo "record_bench.sh: --reps needs a positive integer" >&2
    exit 2
  fi
  reps=$2
  shift 2
fi

commit=$(git rev-parse --short=12 HEAD)
if [ -n "$(git status --porcelain --untracked-files=no -- . ':!BENCH_*.json')" ]; then
  commit="$commit-dirty"
fi
if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

for workload in "${workloads[@]}"; do
  echo "== $workload ($reps runs) =="
  logs=()
  for rep in $(seq 1 "$reps"); do
    python3 bench/suite/run.py --workload "$workload" --seed 7 \
      --seconds 10 --trace 0 --label "$commit" > "$runs/$rep.out"
    grep '^outcome_digest:' "$runs/$rep.out" | sed "s/^/run $rep: /"
    logs+=("$runs/$rep.out")
  done
  python3 scripts/bench_stats.py record "BENCH_$workload.json" "$commit" \
    "$(nproc)" "${logs[@]}"
  echo "wrote BENCH_$workload.json"
done
