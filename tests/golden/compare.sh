#!/usr/bin/env bash
# Regenerates the pinned outputs from BUILD_DIR's binaries and compares
# them byte for byte against the committed goldens in this directory.
# Any difference (or a file present on one side only) fails with a diff.
# A change that means to move a result runs scripts/update_goldens.sh
# and lists each changed golden, with the reason, in CHANGES.md.
# Usage: tests/golden/compare.sh BUILD_DIR
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 BUILD_DIR" >&2; exit 2; }
golden=$(cd "$(dirname "$0")" && pwd)
actual="$1/golden_actual"
rm -rf "$actual"
"$golden/generate.sh" "$1" "$actual"
status=0
for file in "$golden"/*.txt "$golden"/*.json; do
  name=$(basename "$file")
  if ! cmp -s "$file" "$actual/$name"; then
    echo "golden mismatch: $name"
    diff -u "$file" "$actual/$name" | head -40 || true
    status=1
  fi
done
for file in "$actual"/*; do
  [ -e "$golden/$(basename "$file")" ] \
    || { echo "no committed golden for: $(basename "$file")"; status=1; }
done
[ "$status" -eq 0 ] && echo "all goldens byte-identical"
exit "$status"
