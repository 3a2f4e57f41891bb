#!/usr/bin/env bash
# Paper-figure identity gate: rerun fig02, fig06 and fig10 at
# LSMSSD_SCALE=0.25 and diff each one's stdout against the captured
# bench/golden/<fig>_scale0.25.txt. The figures print block counts of
# seeded, in-memory runs (no timings, no git or host info), so any
# difference means the paper harness's write path changed. When a change
# is meant to move a figure, recapture its golden file and say why.
#
# Usage: scripts/check_fig_golden.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="$(cd "${1:-build}" && pwd)"
GOLDEN_DIR="$(cd "$(dirname "$0")/../bench/golden" && pwd)"
RUN_DIR="$(mktemp -d)"
trap 'rm -rf "$RUN_DIR"' EXIT

status=0
for fig in fig02_amortized_small fig06_steady_state fig10_insert_only; do
  bin="$BUILD_DIR/bench/$fig"
  [[ -x "$bin" ]] || {
    echo "missing $bin (build first)" >&2
    exit 2
  }
  # Each figure runs from its own empty directory.
  mkdir "$RUN_DIR/$fig"
  (cd "$RUN_DIR/$fig" && LSMSSD_SCALE=0.25 "$bin" >stdout.txt 2>/dev/null)
  if diff -u "$GOLDEN_DIR/${fig}_scale0.25.txt" "$RUN_DIR/$fig/stdout.txt"; then
    echo "$fig: identical"
  else
    echo "$fig: stdout differs from bench/golden/${fig}_scale0.25.txt" >&2
    status=1
  fi
done
exit "$status"
