#!/usr/bin/env bash
# Paired A/B benchmark of two commits: builds BASE and CHANGE from clean
# exports under a scratch directory, then alternates
# `bench/suite/run.py --workload W --seed 7 --seconds 10 --trace 0` runs
# between them, N pairs per workload (the side that runs first swaps from
# pair to pair, so a drifting host load hits both alike). Per end-to-end
# metric it prints each side's median [q1, q3], the pairs the change won
# (by the metric's "better" direction in BENCHMARK.json), the median gap
# against the base's IQR, and a verdict: gain, worse, unresolved (the
# base's own spread is wider than the metric's bound) or same, by the
# rules in scripts/bench_stats.py, which also reads the runs for
# record_bench.sh. Every run of both sides must report the same
# outcome_digest and no failed operations, and no metric may be worse,
# or the script exits 1 after writing its report. It writes one JSON
# file holding every run, the per-metric summary, the digests and the
# unresolved metrics; `scripts/bench_stats.py resummarize FILE`
# recomputes the summary of a written report.
#
# Each side is a `git archive` export, so the repository's own checkout
# and .git are never touched; the exports build their own
# .bench_build/ trees (about 20 s each, once). BASE and CHANGE are any
# commit-ish (for uncommitted work: CHANGE=$(git stash create)).
#
# Usage: scripts/ab_bench.sh BASE CHANGE [--workload W]... [--pairs N]
#                            [--scratch DIR] [--out FILE]
#   --workload  repeatable; default: every workload in BENCHMARK.json
#   --pairs     default 10
#   --scratch   where the exports and run logs go (default: a new
#               mktemp -d directory, kept for inspection)
#   --out       the JSON report (default: ab_bench.json in --scratch)
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '/^# Usage:/,/^#   --out/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ "$#" -ge 2 ] || usage
base_ref=$1
change_ref=$2
shift 2
workloads=()
pairs=10
scratch=""
out=""
while [ "$#" -gt 0 ]; do
  [ "$#" -ge 2 ] || usage
  case "$1" in
    --workload) workloads+=("$2") ;;
    --pairs)
      [[ "$2" =~ ^[1-9][0-9]*$ ]] || usage
      pairs=$2 ;;
    --scratch) scratch=$2 ;;
    --out) out=$2 ;;
    *) usage ;;
  esac
  shift 2
done

base=$(git rev-parse --verify --quiet "$base_ref^{commit}") ||
  { echo "ab_bench.sh: unknown commit $base_ref" >&2; exit 2; }
change=$(git rev-parse --verify --quiet "$change_ref^{commit}") ||
  { echo "ab_bench.sh: unknown commit $change_ref" >&2; exit 2; }
if [ "${#workloads[@]}" -eq 0 ]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
[ -n "$scratch" ] || scratch=$(mktemp -d)
mkdir -p "$scratch/runs"
scratch=$(cd "$scratch" && pwd)
[ -n "$out" ] || out="$scratch/ab_bench.json"

for side in base change; do
  rm -rf "${scratch:?}/$side"
  mkdir -p "$scratch/$side"
  git archive "${!side}" | tar -x -C "$scratch/$side"
done
echo "base   $base -> $scratch/base"
echo "change $change -> $scratch/change"

run_one() {  # $1 = side, $2 = workload, $3 = pair
  local log="$scratch/runs/$2.$1.$3.out"
  python3 "$scratch/$1/bench/suite/run.py" --workload "$2" --seed 7 \
    --seconds 10 --trace 0 --label "$1" > "$log" ||
    echo "ab_bench.sh: $1 run $3 of $2 exited $?" >&2
  echo "  pair $3 $1: $(grep '^outcome_digest:' "$log" || echo 'no digest')"
}

for workload in "${workloads[@]}"; do
  echo "== $workload ($pairs pairs) =="
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
      run_one base "$workload" "$pair"
      run_one change "$workload" "$pair"
    else
      run_one change "$workload" "$pair"
      run_one base "$workload" "$pair"
    fi
  done
done

python3 scripts/bench_stats.py ab "$out" "$scratch/runs" "$base" "$change" \
  "$pairs" "$(nproc)" "${workloads[@]}"
