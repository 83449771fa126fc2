#!/usr/bin/env bash
# Records the benchmark at the checked-out commit: one
# `bench/suite/run.py --workload W --seed 7 --seconds 10 --trace 0` run per
# workload, written to BENCH_<W>.json at the repository root with the
# commit, the host's core count (`nproc`), the run's `stamp:` line and its
# final JSON line (the metrics). Run it on a clean tree, so the recorded
# commit is the code measured, and commit the files after it.
# Usage: scripts/record_bench.sh [WORKLOAD...]   (default: every workload
#        BENCHMARK.json lists)
set -euo pipefail
cd "$(dirname "$0")/.."

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

for workload in "${workloads[@]}"; do
  echo "== $workload =="
  output=$(python3 bench/suite/run.py --workload "$workload" --seed 7 \
    --seconds 10 --trace 0 --label "$commit")
  printf '%s\n' "$output" | grep '^stamp:'
  COMMIT="$commit" NPROC="$(nproc)" OUTPUT="$output" \
    python3 - "BENCH_$workload.json" <<'EOF'
import json
import os
import sys

lines = os.environ["OUTPUT"].strip().splitlines()
stamp = next(line for line in lines if line.startswith("stamp:"))
record = {
    "commit": os.environ["COMMIT"],
    "nproc": int(os.environ["NPROC"]),
    "stamp": stamp,
    "result": json.loads(lines[-1]),
}
with open(sys.argv[1], "w") as out:
    json.dump(record, out, indent=1)
    out.write("\n")
EOF
  echo "wrote BENCH_$workload.json"
done
