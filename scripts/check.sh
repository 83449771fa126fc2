#!/usr/bin/env bash
# Tier-1 verify, exactly as CI and the roadmap run it:
#   format check (when clang-format is available) + cmake configure +
#   build + full ctest suite.
# Usage: scripts/check.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format (dry run) =="
  git ls-files '*.h' '*.cpp' | xargs clang-format --dry-run -Werror
else
  echo "== clang-format not found; skipping format check =="
fi

cmake -B build -S . "$@"
cmake --build build -j
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== docs consistency: MANUAL.md vs agilla_sim listings =="
# The two generated blocks in docs/MANUAL.md must match the binary's
# --list-scenarios / --list-knobs output byte for byte.
extract_block() {  # $1 = marker suffix ("--list-scenarios" | "--list-knobs")
  awk -v marker="$1" '
    $0 ~ "BEGIN generated: agilla_sim " marker { grab = 1; next }
    grab && /^```/ { if (inside) { exit } inside = 1; next }
    grab && inside { print }
  ' docs/MANUAL.md
}
extract_block "--list-scenarios" > build/manual_scenarios.txt
extract_block "--list-knobs" > build/manual_knobs.txt
./build/agilla_sim --list-scenarios > build/actual_scenarios.txt
./build/agilla_sim --list-knobs > build/actual_knobs.txt
diff -u build/manual_scenarios.txt build/actual_scenarios.txt \
  || { echo "docs/MANUAL.md scenario table is stale — paste in the output of: agilla_sim --list-scenarios"; exit 1; }
diff -u build/manual_knobs.txt build/actual_knobs.txt \
  || { echo "docs/MANUAL.md knob table is stale — paste in the output of: agilla_sim --list-knobs"; exit 1; }

echo "== examples build-and-run gate =="
# Every examples/ binary must run to completion against the embedding
# API (they are the API's reference users; compiling is not enough).
for example in quickstart fire_tracking intruder_tracking \
               habitat_multiapp search_rescue; do
  ./build/"$example" > /dev/null
  echo "example $example ran clean"
done

echo "== VM dispatch smoke (threaded not slower than switch) =="
# Runs both dispatch modes on every throughput workload and fails if the
# pre-decoded threaded dispatch is ever slower than the reference switch
# interpreter (DESIGN.md "VM dispatch").
./build/bench_vm_throughput --smoke

echo "== dispatch-mode sweep equivalence (switch vs threaded) =="
dispatch_sweep() {  # $1 = vm_dispatch value, $2 = out file
  ./build/agilla_sim --scenario fire_tracking --grid 4x4 --trials 2 \
    --duration 40 --param vm_dispatch="$1" --out "$2" > /dev/null
}
dispatch_sweep 0 build/dispatch_switch.json
dispatch_sweep 1 build/dispatch_threaded.json
# The echoed vm_dispatch param is the one intended difference.
sed '/"vm_dispatch":/d' build/dispatch_switch.json > build/dispatch_switch_norm.json
sed '/"vm_dispatch":/d' build/dispatch_threaded.json > build/dispatch_threaded_norm.json
cmp build/dispatch_switch_norm.json build/dispatch_threaded_norm.json
echo "fire_tracking sweep byte-identical across dispatch modes"

echo "== harness determinism (fire_tracking 8x8, threads 2 vs 1) =="
./build/agilla_sim --trials 4 --grid 8x8 --threads 2 \
  --out build/harness_t2.json > /dev/null
./build/agilla_sim --trials 4 --grid 8x8 --threads 1 \
  --out build/harness_t1.json > /dev/null
cmp build/harness_t2.json build/harness_t1.json
echo "harness sweep byte-identical across thread counts"

echo "== energy determinism (network_lifetime 6x6, threads 8 vs 1) =="
# Node deaths, battery draws and churn bookkeeping must not depend on the
# worker count.
energy_sweep() {  # $1 = threads, $2 = out file
  ./build/agilla_sim --scenario network_lifetime --grid 6x6 --trials 2 \
    --duration 80 --param battery_mj=1200 --threads "$1" \
    --out "$2" > /dev/null
}
energy_sweep 8 build/energy_t8.json
energy_sweep 1 build/energy_t1.json
cmp build/energy_t8.json build/energy_t1.json
echo "energy sweep byte-identical across thread counts"

echo "== routing-sweep determinism (threads 1 vs 8) =="
routing_sweep() {  # $1 = threads, $2 = out file
  ./build/agilla_sim --scenario report_collection --grid 4x4 --trials 2 \
    --duration 60 --param battery_mj=800 --param duty_cycle=0.2 \
    --param adaptive_lpl=1 --axis route_policy=0,1 \
    --threads "$1" --out "$2" > /dev/null
}
routing_sweep 1 build/routing_t1.json
routing_sweep 8 build/routing_t8.json
cmp build/routing_t1.json build/routing_t8.json
echo "routing sweep byte-identical across thread counts"

echo "== sharded-engine determinism (shards 1 vs 4) =="
shard_sweep() {  # $1 = sim_shards, $2 = out file
  ./build/agilla_sim --scenario fire_tracking --grid 16x16 --trials 2 \
    --duration 30 --threads 1 --param sim_shards="$1" \
    --out "$2" > /dev/null
}
shard_sweep 1 build/shards_1.json
shard_sweep 4 build/shards_4.json
# The echoed sim_shards param is the one intended difference.
sed '/"sim_shards":/d' build/shards_1.json > build/shards_1_norm.json
sed '/"sim_shards":/d' build/shards_4.json > build/shards_4_norm.json
cmp build/shards_1_norm.json build/shards_4_norm.json
./build/bench_scale --smoke > /dev/null
echo "fire_tracking sweep byte-identical across shard counts"

echo "== shards and threads compose (sim_shards=2, threads 8 vs 1) =="
compose_sweep() {  # $1 = threads, $2 = out file
  ./build/agilla_sim --scenario fire_tracking --grid 16x16 --trials 4 \
    --duration 30 --threads "$1" --param sim_shards=2 --out "$2" > /dev/null
}
compose_sweep 8 build/shards2_t8.json
compose_sweep 1 build/shards2_t1.json
cmp build/shards2_t8.json build/shards2_t1.json
echo "sharded sweep byte-identical across thread counts"

echo "== numeric flag validation (exit 2 on a bad value) =="
# A non-numeric or meaningless value must be rejected by name, not
# silently read as 0.
expect_usage_error() {  # $@ = command line
  local status=0
  "$@" > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || { echo "expected exit 2 from: $* (got $status)"; exit 1; }
}
expect_usage_error ./build/agilla_sim --seed abc --out build/bad_flag.json
expect_usage_error ./build/agilla_loadgen --loopback --smoke --ops 5x \
  --out build/bad_flag.json
# The daemon would otherwise start serving; the timeout bounds that case.
expect_usage_error timeout 10 ./build/agilla_gatewayd \
  --listen 127.0.0.1:0 --queue-cap 12x
echo "bad numeric flags exit 2 in agilla_sim, agilla_loadgen, agilla_gatewayd"

echo "== agent toolchain: corpus round trip + conformance grade =="
# Every corpus program must survive assemble -> disassemble -> reassemble
# byte-identically, and the grader must reproduce every .expect dump.
./build/agilla_as --check tests/agents/*.aga bench/suite/agents/*.aga
./build/agilla_grade tests/agents
# The xfail program's deliberately wrong .expect must make the grader
# exit non-zero (with a diff on stdout) when the inversion is disabled:
# this proves a real regression cannot slip through as a silent pass.
if ./build/agilla_grade --strict tests/agents/broken_expect_xfail.aga \
    > build/grade_broken.txt 2>&1; then
  echo "grader failed to flag a broken .expect"; exit 1
fi
grep -q '^  - ' build/grade_broken.txt
grep -q '^  + ' build/grade_broken.txt
echo "grader corpus green; broken .expect flagged with a diff"

echo "== gateway smoke: loopback determinism (64 clients, 2 runs) =="
# The loadgen exits non-zero on any protocol error, failed client, or
# failed reconnect; two identical-seed runs must produce byte-identical
# metrics (per-session transcript hashes included).
loadgen_loopback() {  # $1 = out file
  ./build/agilla_loadgen --loopback --grid 8x8 --seed 7 --clients 64 \
    --smoke --out "$1" > /dev/null
}
loadgen_loopback build/loadgen_a.json
loadgen_loopback build/loadgen_b.json
cmp build/loadgen_a.json build/loadgen_b.json
grep -q '"protocol_errors": 0' build/loadgen_a.json
echo "gateway loopback smoke byte-identical across runs"

echo "== gateway smoke: live TCP daemon round trip (shards 1 and 4) =="
for shards in 1 4; do
  rm -f build/gatewayd_port build/gatewayd_metrics.json
  # Background ONLY the daemon command ($! must be the daemon, not a
  # compound-statement subshell, or the TERM below orphans it).
  ./build/agilla_gatewayd --grid 8x8 --seed 7 --listen 127.0.0.1:0 \
    --param sim_shards="$shards" --port-file build/gatewayd_port \
    --metrics build/gatewayd_metrics.json &
  GWPID=$!
  for _ in $(seq 1 100); do
    [ -s build/gatewayd_port ] && break
    sleep 0.1
  done
  [ -s build/gatewayd_port ] || { echo "gatewayd never published its port"; kill "$GWPID"; exit 1; }
  ./build/agilla_loadgen --connect "127.0.0.1:$(cat build/gatewayd_port)" \
    --clients 64 --smoke --out build/loadgen_tcp.json > /dev/null
  kill -TERM "$GWPID"
  wait "$GWPID"
  grep -q '"protocol_errors": 0' build/loadgen_tcp.json
  # Graceful TERM: the daemon drains sessions and flushes its metrics.
  [ -s build/gatewayd_metrics.json ]
  grep -q '"sessions_opened"' build/gatewayd_metrics.json
  echo "gateway TCP smoke clean at sim_shards=$shards; daemon drained on SIGTERM"
done

echo "== benchmark suite smoke (bench_suite built from src/) =="
# bench/suite compiles src/ in its own Release build and drives the
# public API; an API change that breaks it must fail here, not only in
# the post-merge benchmark run.
python3 bench/suite/run.py --smoke > build/bench_smoke.txt
echo "bench_suite smoke clean"
