#!/usr/bin/env bash
# Variance gate over BENCH_merge_latency.json's latency_over_time section
# (ext_merge_latency part 3): the parallel-worker scheduler must keep the
# latency-over-time curve at least as flat as the 1-worker baseline.
# Budgets are deliberately generous — CI boxes are noisy and the
# windowed stddev doubly so — so only a real head-of-line regression
# (multi-worker runs slower or spikier than the single-worker baseline by
# integer factors) fails the job.
#
# Usage: scripts/check_merge_latency_variance.sh [JSON_PATH]
set -euo pipefail

JSON="${1:-BENCH_merge_latency.json}"
[[ -f "$JSON" ]] || {
  echo "missing $JSON (run ext_merge_latency first)" >&2
  exit 2
}

python3 - "$JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

runs = {r["workers"]: r for r in doc.get("latency_over_time", [])}
for w in (1, 2, 4):
    if w not in runs:
        sys.exit(f"FAIL: no latency_over_time entry for workers={w}")
base = runs[1]

failures = []

def gate(name, value, budget):
    status = "ok" if value <= budget else "FAIL"
    print(f"  {name}: {value:.2f} (budget {budget:g}) {status}")
    if value > budget:
        failures.append(name)

# Whole-run p99 with more workers must not regress past 3x the baseline.
for w in (2, 4):
    if base["p99_us"] > 0:
        gate(f"p99_ratio_workers{w}", runs[w]["p99_us"] / base["p99_us"], 3.0)

# The windowed p99 spike budget: at the full pool the latency-over-time
# curve must be no spikier than the single-worker baseline, within noise.
if base["window_p99_mean_us"] > 0:
    gate("window_p99_mean_ratio_workers4",
         runs[4]["window_p99_mean_us"] / base["window_p99_mean_us"], 1.5)
if base["window_p99_max_us"] > 0:
    gate("window_p99_max_ratio_workers4",
         runs[4]["window_p99_max_us"] / base["window_p99_max_us"], 2.0)

if failures:
    sys.exit("FAIL: merge-latency variance gate: " + ", ".join(failures))
print("merge-latency variance gate passed")
EOF
