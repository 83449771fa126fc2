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

# Non-default paths: clamped hop counts, a duty-cycled alert-once
# detector, fast churn, a non-square grid, max-min routing on a small
# battery.
variant() {  # $1 = golden name, $2 = scenario, $3 = grid, rest = flags
  local name=$1 scenario=$2 grid=$3
  shift 3
  "$build/agilla_sim" --scenario "$scenario" --grid "$grid" --trials 2 \
    --duration 60 --seed 3 --threads 1 "$@" \
    --out "$out/sim_$name.json" > /dev/null
}
variant smove_hops smove 6x6 --axis hops=1,5,12
variant rout_hops rout 6x6 --axis hops=1,5,12
variant network_lifetime_lpl network_lifetime 6x6 --param alert_repeat_s=0 \
  --param duty_cycle=0.2 --param adaptive_lpl=1
variant churn_pursuit_fast churn_pursuit 6x6 --param churn_rate=0.02 \
  --param churn_reboot_s=5
variant intruder_pursuit_8x4 intruder_pursuit 8x4
variant report_collection_maxmin report_collection 6x6 \
  --param route_policy=1 --param battery_mj=800

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
