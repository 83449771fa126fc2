#!/usr/bin/env bash
# Writes every pinned simulated output into OUT_DIR:
#   - the deterministic paper-figure and ablation benches (stdout);
#   - agilla_sim JSON for each scenario at one small fixed configuration;
#   - the agilla_loadgen loopback smoke JSON;
#   - agilla_as -d listings of the agent corpora.
# Usage: tests/golden/generate.sh BUILD_DIR OUT_DIR
# compare.sh diffs the result against the committed files next to this
# script; scripts/update_goldens.sh rewrites them.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 BUILD_DIR OUT_DIR" >&2; exit 2; }
build=$1
out=$2
src=$(cd "$(dirname "$0")/../.." && pwd)
mkdir -p "$out"

for bench in bench_fig5_message_sizes bench_fig9_reliability \
             bench_fig10_latency bench_fig11_remote_ops \
             bench_fig12_local_ops bench_memory_footprint \
             bench_mate_compare bench_ablation_energy \
             bench_ablation_routing bench_ablation_retx \
             bench_ablation_hopbyhop; do
  "$build/$bench" > "$out/$bench.txt"
done

for scenario in fire_tracking intruder_pursuit smove rout store_ops \
                network_lifetime churn_pursuit report_collection; do
  "$build/agilla_sim" --scenario "$scenario" --grid 6x6 --trials 2 \
    --duration 60 --seed 3 --threads 1 \
    --out "$out/sim_$scenario.json" > /dev/null
done

"$build/agilla_loadgen" --loopback --grid 8x8 --seed 7 --clients 64 \
  --smoke --out "$out/loadgen_loopback.json" > /dev/null

listing() {  # $1 = corpus directory, $2 = out file
  : > "$2"
  local bin="$out/listing.bin"
  for program in "$1"/*.aga; do
    echo "== ${program#"$src"/}" >> "$2"
    "$build/agilla_as" -o "$bin" "$program" > /dev/null 2>&1 \
      || { echo "agilla_as cannot assemble $program" >&2; exit 1; }
    "$build/agilla_as" -d "$bin" >> "$2"
  done
  rm -f "$bin"
}
listing "$src/tests/agents" "$out/agents_tests.txt"
listing "$src/bench/suite/agents" "$out/agents_bench_suite.txt"
