#!/usr/bin/env bash
# Tier-1 verify, exactly as CI and the roadmap run it:
#   format check (when clang-format is available) + cmake configure +
#   build + full ctest suite, then the end-to-end gates CI runs too
#   (scripts/gates.sh) and the benchmark suite smoke.
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

scripts/gates.sh build

echo "== benchmark suite smoke (bench_suite built from src/) =="
# bench/suite compiles src/ in its own Release build and drives the
# public API; an API change that breaks it must fail here, not only in
# the post-merge benchmark run.
python3 bench/suite/run.py --smoke > build/bench_smoke.txt
echo "bench_suite smoke clean"
