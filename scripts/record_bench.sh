#!/usr/bin/env bash
# Records the benchmark at the checked-out commit: N runs of
# `bench/suite/run.py --workload W --seed 7 --seconds 10 --trace 0` per
# workload, written to BENCH_<W>.json at the repository root with the
# commit, the host's core count (`nproc`), the first run's `stamp:` line,
# each run's outcome_digest, attempted and failed operations and final
# JSON line, and per end-to-end metric the median and quartiles over the
# runs (Python's statistics.quantiles(values, n=4), as bench/suite/README.md
# measures noise). Run it on a clean tree, so the recorded commit is the
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
  for rep in $(seq 1 "$reps"); do
    python3 bench/suite/run.py --workload "$workload" --seed 7 \
      --seconds 10 --trace 0 --label "$commit" > "$runs/$rep.out"
    grep '^outcome_digest:' "$runs/$rep.out" | sed "s/^/run $rep: /"
  done
  COMMIT="$commit" NPROC="$(nproc)" REPS="$reps" RUNS="$runs" \
    python3 - "BENCH_$workload.json" <<'EOF'
import json
import os
import statistics
import sys

runs = []
for rep in range(1, int(os.environ["REPS"]) + 1):
    with open(os.path.join(os.environ["RUNS"], f"{rep}.out")) as f:
        lines = f.read().strip().splitlines()
    digest = next(line for line in lines if line.startswith("outcome_digest:"))
    runs.append({
        "stamp": next(line for line in lines if line.startswith("stamp:")),
        "outcome_digest": digest.split(":", 1)[1].strip(),
        "result": json.loads(lines[-1]),
    })

metrics = {}
for name, first in runs[0]["result"]["metrics"].items():
    values = [run["result"]["metrics"][name]["value"] for run in runs]
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    median = statistics.median(values)
    metrics[name] = {"unit": first["unit"], "median": median, "q1": q1,
                     "q3": q3, "values": values}

record = {
    "commit": os.environ["COMMIT"],
    "nproc": int(os.environ["NPROC"]),
    "stamp": runs[0]["stamp"],
    "reps": len(runs),
    "correct": all(run["result"]["correct"] for run in runs),
    "failed": sum(run["result"]["failed"] for run in runs),
    "outcome_digests": [run["outcome_digest"] for run in runs],
    "metrics": metrics,
    "runs": [run["result"] for run in runs],
}
with open(sys.argv[1], "w") as out:
    json.dump(record, out, indent=1)
    out.write("\n")
for name, m in metrics.items():
    print(f"  {name}: median {m['median']:.6g} (q1 {m['q1']:.6g}, "
          f"q3 {m['q3']:.6g}) {m['unit']}")
EOF
  echo "wrote BENCH_$workload.json"
done
