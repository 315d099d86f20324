#!/usr/bin/env bash
# Durable-overhead gate, run by scripts/bench_smoke.sh.
#
# Crash safety must not cost a multiple of the work it protects. The
# script makes five in-process runs of e10's schedule grid (every free
# tree n ≤ 9) at --threads 1 without a journal, interleaved with five cold
# runs with --workers 2 --threads 1 --checkpoint, and fails when the median
# wall time of the durable runs exceeds 3.0 times the in-process median.
# With a single core the two workers would share it, and the script exits
# 0.
#
# Usage: scripts/durable_overhead.sh [OUTDIR]   (from the repo root)
# Writes each run's "label cpu_s wall_s" to OUTDIR/durable-overhead.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
cores=$(nproc)
if [ "$cores" -lt 2 ]; then
  echo "durable overhead: nproc is $cores, so two workers would share one core; skipping"
  exit 0
fi
mkdir -p "$out"
results=$out/durable-overhead.txt
. scripts/cold_ratio.sh

journal=$out/durable-overhead.ckpt
grid=(--experiment e10 --sizes 2,3,4,5,6,7,8,9 --threads 1)
for _ in $(seq 5); do
  measure in-process "${grid[@]}"
  rm -f "$journal"
  measure durable "${grid[@]}" --workers 2 --checkpoint "$journal"
done
rm -f "$journal"
check_ratio wall 3.0 durable in-process "--workers 2 --checkpoint costs too much over the in-process run"
