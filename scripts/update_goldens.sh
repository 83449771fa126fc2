#!/usr/bin/env bash
# Rewrites tests/golden/ from the current build, for a change that means
# to move a simulated result. List every golden that changed, and why,
# in CHANGES.md.
# Usage: scripts/update_goldens.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
build=${1:-build}
rm -f tests/golden/*.txt tests/golden/*.json
tests/golden/generate.sh "$build" tests/golden
git status --short tests/golden
